#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string_view>

#include "obs/metrics.h"
#include "sim/time.h"

namespace ppsim::obs {

/// Host-resource and scheduler telemetry for large runs: RSS / peak RSS of
/// the process, scheduler queue depth and event horizon, per-module
/// live-object/byte counters, and events-per-wall-second throughput.
///
/// The probe never reads a clock. Wall-clock inputs come from the caller —
/// in practice `RunProfiler::wall_seconds_elapsed()`, the one sanctioned
/// steady_clock island — so the determinism linter's wall-clock wall around
/// src/obs stays intact. RSS comes from /proc/self/status (VmRSS / VmHWM),
/// which is a file read, not a clock; on non-Linux hosts both report 0.
///
/// Like the profiler, the probe is purely passive: nothing it records feeds
/// back into the simulation. The scheduler/live-peer gauges are
/// deterministic per seed; the RSS and wall-throughput gauges are
/// machine-dependent (never diff them across runs).
class ResourceProbe {
 public:
  /// Everything a sample needs, gathered by the runner on its sampling
  /// tick. Wall seconds may be 0 when no profiler is attached; the
  /// throughput gauge then stays 0 rather than inventing a clock.
  struct Inputs {
    sim::Time now;
    std::size_t queue_depth = 0;
    sim::Time event_horizon = sim::Time::zero();
    std::uint64_t events_executed = 0;
    std::uint64_t queue_bytes = 0;
    std::uint64_t live_peers = 0;
    std::uint64_t live_peer_bytes = 0;
    double wall_seconds = 0;
  };

  struct Sample {
    sim::Time t;
    std::uint64_t rss_bytes = 0;
    std::uint64_t peak_rss_bytes = 0;
    std::size_t queue_depth = 0;
    double event_horizon_s = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t queue_bytes = 0;
    std::uint64_t live_peers = 0;
    std::uint64_t live_peer_bytes = 0;
    double events_per_wall_s = 0;  // over the interval since the last sample
  };

  /// Samples kept in the in-memory ring (oldest evicted) — bounded, like
  /// everything else in the scale observatory.
  explicit ResourceProbe(std::size_t retain = 64) : retain_(retain) {}

  const Sample& sample(const Inputs& in);

  /// Sets one gauge per `kResourceGaugeNames` entry to the latest sample;
  /// no-op before the first. The names are inventoried in
  /// docs/OBSERVABILITY.md and cross-checked by the ppsim-audit
  /// completeness pass.
  void export_metrics(MetricsRegistry& registry) const;

  const std::deque<Sample>& samples() const { return samples_; }

  /// Current / peak resident set of this process in bytes (0 when the
  /// platform offers no /proc/self/status).
  static std::uint64_t current_rss_bytes();
  static std::uint64_t peak_rss_bytes();

 private:
  std::size_t retain_;
  std::deque<Sample> samples_;
  std::uint64_t prev_events_ = 0;
  double prev_wall_seconds_ = 0;
};

/// The probe's gauge inventory, in the order the docs table lists them.
/// ppsim-audit's completeness pass cross-checks this array against the
/// "Scale observatory" table in docs/OBSERVABILITY.md.
inline constexpr std::array<std::string_view, 8> kResourceGaugeNames = {
    "resource_rss_bytes",        "resource_peak_rss_bytes",
    "sched_queue_depth",         "sched_event_horizon_s",
    "sched_queue_bytes",         "sched_events_per_wall_s",
    "live_peers",                "live_peer_bytes",
};

}  // namespace ppsim::obs
