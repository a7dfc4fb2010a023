// Counting replacement of the global operator new for bench_scale's
// allocations-per-event column. Each call costs one relaxed atomic add on
// top of malloc.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

std::uint64_t ppsim::bench::allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
