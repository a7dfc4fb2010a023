#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ppsim::obs {

/// One benchmark's machine-readable result, the unit of the BENCH_*.json
/// perf trajectory (schema "ppsim-bench-v1", docs/OBSERVABILITY.md).
struct BenchEntry {
  std::string name;
  std::uint64_t iterations = 0;
  double ns_per_op = 0;
  /// Peak simulator queue depth for scheduler-shaped benches; 0 when the
  /// bench has no simulator underneath.
  std::uint64_t peak_queue_depth = 0;
  /// Macro-bench resource telemetry (the BENCH_scale sweep). Written only
  /// when nonzero so entries from micro-benches — and every pre-existing
  /// BENCH file — keep their exact byte layout.
  std::uint64_t rss_peak_bytes = 0;
  double wall_s = 0;  // whole-run wall clock, not per-op
  /// Heap allocations (operator new calls) per op, from bench_scale's
  /// counting allocator. Written only when nonzero, like rss_peak_bytes.
  double allocs_per_op = 0;
};

/// NDJSON: a header line {"bench_schema":"ppsim-bench-v1","benchmarks":N}
/// followed by one entry per line, sorted by name so files diff cleanly
/// across runs regardless of registration order.
void write_bench_json(std::ostream& os, std::vector<BenchEntry> entries);

/// Parses files written by write_bench_json. Malformed lines are skipped
/// and counted in *dropped (when non-null); the header line is not an entry.
std::vector<BenchEntry> read_bench_json(std::istream& is,
                                        std::size_t* dropped = nullptr);

}  // namespace ppsim::obs
