// BENCH_scale: the macro-bench that pins the simulator's scale trajectory
// (ROADMAP item 1). Sweeps peer counts over the multi-ISP popular channel
// and records, per sweep point, the whole-run wall clock, peak RSS, events
// executed, and peak scheduler queue depth — written in the shared
// ppsim-bench-v1 schema (with the macro-only rss_peak_bytes / wall_s
// fields) so the committed bench/BENCH_scale.json diffs cleanly and CI can
// guard its coverage like BENCH_micro.json.
//
// Wall time is one steady_clock read on each side of a bare run_experiment
// call with no observer attached, so ns/event is the simulator's own cost,
// not an instrument's. Events and peak queue depth come from the run's
// SwarmStats. The peak is the scheduler's high-water mark of pending events
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
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "figures_common.h"
#include "obs/bench_json.h"
#include "obs/resource_probe.h"
#include "workload/scenario.h"

namespace {

struct ScaleFlags {
  std::vector<int> peers;
  int minutes = 4;
  std::uint64_t seed = 20081012;
  std::string bench_json;
};

ScaleFlags parse_scale_flags(int argc, char** argv) {
  ScaleFlags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--peers") {
      const int n = std::atoi(value());
      if (n <= 0) {
        std::fprintf(stderr, "--peers must be positive\n");
        std::exit(2);
      }
      f.peers.push_back(n);
    } else if (arg == "--minutes") {
      f.minutes = std::atoi(value());
      if (f.minutes <= 0) {
        std::fprintf(stderr, "--minutes must be positive\n");
        std::exit(2);
      }
    } else if (arg == "--seed") {
      f.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--bench-json") {
      f.bench_json = value();
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--peers N]... [--minutes M] "
                   "[--seed S] [--bench-json F]\n");
      std::exit(2);
    }
  }
  if (f.peers.empty()) f.peers = {1000, 5000, 20000};
  std::sort(f.peers.begin(), f.peers.end());
  return f;
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
  const ScaleFlags flags = parse_scale_flags(argc, argv);

  std::printf("BENCH_scale: peer-count sweep, popular multi-ISP channel, "
              "%d sim-minutes, seed %" PRIu64 "\n\n",
              flags.minutes, flags.seed);
  std::printf("%8s %14s %9s %12s %10s %10s\n", "peers", "events", "wall_s",
              "events/s", "rss_peak", "queue_pk");

  std::vector<ppsim::obs::BenchEntry> entries;
  for (const int peers : flags.peers) {
    ppsim::core::ExperimentConfig config;
    config.scenario = ppsim::workload::popular_channel();
    config.scenario.viewers = peers;
    config.scenario.duration = ppsim::sim::Time::minutes(flags.minutes);
    config.scenario.seed = flags.seed;

    const auto start = std::chrono::steady_clock::now();
    const ppsim::core::ExperimentResult result =
        ppsim::core::run_experiment(config);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
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
    entries.push_back(e);

    std::printf("%8d %14" PRIu64 " %9.2f %12.0f %8.1fMB %10" PRIu64 "\n",
                peers, events, wall,
                wall > 0 ? static_cast<double>(events) / wall : 0.0,
                static_cast<double>(rss_peak) / (1024.0 * 1024.0),
                e.peak_queue_depth);
    std::fflush(stdout);
  }

  std::printf("\n");
  if (!ppsim::bench::emit_bench_json(flags.bench_json, std::move(entries)))
    return 1;
  return 0;
}
