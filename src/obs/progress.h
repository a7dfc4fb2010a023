#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sim/time.h"

namespace ppsim::obs {

/// Live-progress heartbeat for long runs: one stderr line per period with
/// sim time, wall time, event throughput, peers alive, RSS, and an ETA.
///
/// Wall time arrives in each State, taken from the run's RunProfiler — the
/// sanctioned steady_clock island — so the meter itself never reads a
/// clock; without it the wall/throughput/ETA columns render as "-". The
/// ETA extrapolates the wall-per-sim-second rate between the last two
/// heartbeats (the run so far on the first), because per-event cost grows
/// while the swarm fills. The meter only writes to its own stream: it
/// cannot perturb the run, and a disarmed meter costs nothing (the runner
/// doesn't even schedule the tick).
///
/// Line format (kept in sync with docs/OBSERVABILITY.md):
///   [progress] t=120.0s/360s (33.3%) wall=4.1s events=804905 (195.2k/s)
///   peers=121 queue=5417 rss=512.3MB eta=8.2s
class ProgressMeter {
 public:
  struct Options {
    std::ostream* out = nullptr;          // heartbeat destination (borrowed)
    sim::Time total = sim::Time::zero();  // planned run length (for %, ETA)
  };

  /// Snapshot the runner gathers on the progress tick.
  struct State {
    sim::Time now;
    /// Wall seconds since the run's first event
    /// (RunProfiler::wall_seconds_elapsed); 0 when unknown.
    double wall_seconds = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t peers_alive = 0;
    std::size_t queue_depth = 0;
    std::uint64_t rss_bytes = 0;
  };

  explicit ProgressMeter(const Options& options) : options_(options) {}

  void tick(const State& state);

  std::uint64_t lines_written() const { return lines_; }

  /// The formatted heartbeat for one snapshot (no trailing newline);
  /// exposed for tests and for callers that want the line elsewhere. Its
  /// ETA reads the interval since the last tick.
  std::string format_line(const State& state) const;

 private:
  Options options_;
  std::uint64_t lines_ = 0;
  // The last heartbeat's sim time and wall seconds (zero before the first).
  sim::Time last_now_ = sim::Time::zero();
  double last_wall_ = 0;
};

}  // namespace ppsim::obs
