#pragma once

#include <cstdint>

namespace ppsim::bench {

/// Calls of the global operator new so far in this process. Defined only
/// when bench/alloc_counter.cc, which replaces operator new with a counting
/// malloc wrapper, is linked in: bench_scale links it, nothing else does.
/// The array and nothrow forms reach the counted operator through the
/// standard library's defaults; the aligned forms are not counted.
std::uint64_t allocations();

}  // namespace ppsim::bench
