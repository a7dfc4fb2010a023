// BENCH_scale: the macro-bench that pins the simulator's scale trajectory
// (ROADMAP item 1). Sweeps peer counts over the multi-ISP popular channel
// and records, per sweep point, the whole-run wall clock, peak RSS, events
// executed, heap allocations per event and peak scheduler queue depth —
// written in the shared ppsim-bench-v1 schema (with the macro-only
// rss_peak_bytes / wall_s / allocs_per_op fields) so the committed
// bench/BENCH_scale.json diffs cleanly and CI can guard it like
// BENCH_micro.json.
//
// Wall time is one steady_clock read on each side of a bare run_experiment
// call with no observer attached, so ns/event is the simulator's own cost,
// not an instrument's, apart from the allocation counter: one relaxed
// atomic add per operator new call (alloc_counter.cc). Allocations per
// event count every operator new call of the run, setup included, divided
// by events executed; for a given standard-library build the count repeats
// exactly. Events and peak queue depth come from the run's SwarmStats. The
// peak is the scheduler's high-water mark of pending events
// (Simulator::peak_pending_events).
// Peak RSS is process-wide and monotone, which is why the sweep always runs
// in ascending peer order: each point's reading is attributable to the
// largest run so far, i.e. its own.
//
//   bench_scale [--peers N]... [--minutes M] [--seed S] [--bench-json F]
//
// Defaults: --peers 1000 5000 20000, --minutes 4, --seed 20081012. N and M
// must be positive.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "core/experiment.h"
#include "figures_common.h"
#include "obs/bench_json.h"
#include "obs/directive.h"
#include "obs/resource_probe.h"
#include "workload/scenario.h"

namespace {

struct ScaleFlags {
  std::vector<int> peers;
  int minutes = 4;
  std::uint64_t seed = 20081012;
  std::string bench_json;
};

/// Reads the flags into `flags`, with the figure benches' rules and
/// messages (bench::parse_flags): every value must be a whole integer, and
/// N and M positive. Returns the error, or "" when every flag parsed.
std::string parse_scale_flags(int argc, char** argv, ScaleFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--peers" && flag != "--minutes" && flag != "--seed" &&
        flag != "--bench-json")
      return "unknown option: " + flag;
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    const std::string bad = "bad value for " + flag + ": " + value;
    if (flag == "--seed") {
      if (!ppsim::obs::parse_directive_integer(value, &flags->seed))
        return bad;
    } else if (flag == "--bench-json") {
      flags->bench_json = value;
    } else {
      int n = 0;
      if (!ppsim::obs::parse_directive_integer(value, &n) || n <= 0)
        return bad;
      if (flag == "--minutes")
        flags->minutes = n;
      else
        flags->peers.push_back(n);
    }
  }
  if (flags->peers.empty()) flags->peers = {1000, 5000, 20000};
  std::sort(flags->peers.begin(), flags->peers.end());
  return "";
}

/// "scale/peers:01000" — zero-padded so the writer's sort-by-name order is
/// the numeric sweep order.
std::string row_name(int peers) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "scale/peers:%05d", peers);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleFlags flags;
  if (const std::string error = parse_scale_flags(argc, argv, &flags);
      !error.empty()) {
    std::fprintf(stderr,
                 "error: %s\nusage: bench_scale [--peers N]... [--minutes M] "
                 "[--seed S] [--bench-json F]\n",
                 error.c_str());
    return 2;
  }

  std::printf("BENCH_scale: peer-count sweep, popular multi-ISP channel, "
              "%d sim-minutes, seed %" PRIu64 "\n\n",
              flags.minutes, flags.seed);
  std::printf("%8s %14s %9s %12s %10s %10s %10s\n", "peers", "events",
              "wall_s", "events/s", "rss_peak", "queue_pk", "allocs/ev");

  std::vector<ppsim::obs::BenchEntry> entries;
  for (const int peers : flags.peers) {
    ppsim::core::ExperimentConfig config;
    config.scenario = ppsim::workload::popular_channel();
    config.scenario.viewers = peers;
    config.scenario.duration = ppsim::sim::Time::minutes(flags.minutes);
    config.scenario.seed = flags.seed;

    const std::uint64_t allocs_before = ppsim::bench::allocations();
    const auto start = std::chrono::steady_clock::now();
    const ppsim::core::ExperimentResult result =
        ppsim::core::run_experiment(config);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const std::uint64_t allocs =
        ppsim::bench::allocations() - allocs_before;
    const std::uint64_t rss_peak =
        ppsim::obs::ResourceProbe::peak_rss_bytes();
    const std::uint64_t events = result.swarm.events_executed;

    ppsim::obs::BenchEntry e;
    e.name = row_name(peers);
    e.iterations = events;
    e.ns_per_op =
        events == 0 ? 0.0 : wall / static_cast<double>(events) * 1e9;
    e.peak_queue_depth = result.swarm.peak_queue_depth;
    e.rss_peak_bytes = rss_peak;
    e.wall_s = wall;
    e.allocs_per_op = events == 0 ? 0.0
                                  : static_cast<double>(allocs) /
                                        static_cast<double>(events);
    entries.push_back(e);

    std::printf("%8d %14" PRIu64 " %9.2f %12.0f %8.1fMB %10" PRIu64
                " %10.3f\n",
                peers, events, wall,
                wall > 0 ? static_cast<double>(events) / wall : 0.0,
                static_cast<double>(rss_peak) / (1024.0 * 1024.0),
                e.peak_queue_depth, e.allocs_per_op);
    std::fflush(stdout);
  }

  std::printf("\n");
  if (!ppsim::bench::emit_bench_json(flags.bench_json, std::move(entries)))
    return 1;
  return 0;
}
