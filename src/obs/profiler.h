#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/observer.h"

namespace ppsim::obs {

/// Per-event-category run profiler, gathered through the simulator's
/// observer hook: events per category and the peak queue depth, plus —
/// when timed — execution wall time and events per second.
///
/// A timed profiler is the one component of the observability layer that
/// reads the host's clock — which is why it lives here in src/obs, outside
/// the event core the determinism linter guards. It only *measures* the
/// run; nothing it records feeds back into the simulation, so determinism
/// is preserved. Its wall numbers are machine- and load-dependent: never
/// diff them across runs, never assert on them in tests beyond
/// "non-negative". The counts are deterministic per seed in either mode.
class RunProfiler final : public sim::SimObserver {
 public:
  /// Bucket bounds (seconds) of the per-category dispatch-time histograms:
  /// decades from 100ns to 100ms, covering a trivial callback through a
  /// pathological one.
  static std::vector<double> dispatch_time_bounds();

  struct CategoryStats {
    std::uint64_t events = 0;
    double wall_seconds = 0;
    /// Per-event dispatch wall time; quantiles via Histogram::quantile.
    Histogram dispatch_time{dispatch_time_bounds()};
  };

  /// An untimed profiler reads no clock: it only counts, so its wall
  /// columns stay 0 and its histograms empty.
  explicit RunProfiler(bool timed = true) : timed_(timed) {}

  void on_event_begin(sim::Time now, std::uint64_t seq, const char* category,
                      std::size_t queue_depth) override;
  void on_event_end(sim::Time now, const char* category) override;

  const std::map<std::string, CategoryStats, std::less<>>& categories()
      const {
    return stats_;
  }
  std::uint64_t events_total() const { return events_total_; }
  /// Sum of the events' dispatch times.
  double wall_seconds_total() const { return wall_seconds_total_; }
  /// Wall time from the first event's start to the latest event's end:
  /// the dispatch time plus the scheduler loop around it. 0 before the
  /// first event ends, and always 0 when untimed.
  double wall_seconds_elapsed() const {
    return events_total_ == 0
               ? 0.0
               : std::chrono::duration<double>(last_end_ - first_begin_)
                     .count();
  }
  double events_per_second() const {
    return wall_seconds_total_ <= 0
               ? 0.0
               : static_cast<double>(events_total_) / wall_seconds_total_;
  }
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Writes sim_events_dispatched{category=...} counters (the untagged ""
  /// category as "(untagged)") and the sim_peak_queue_depth gauge into
  /// `registry`: counts only, so the rows are byte-stable per seed.
  void export_metrics(MetricsRegistry& registry) const;

  /// Human-readable summary table, categories by descending wall time.
  void print(std::ostream& os) const;

 private:
  using Clock = std::chrono::steady_clock;

  bool timed_;
  std::map<std::string, CategoryStats, std::less<>> stats_;
  Clock::time_point event_begin_{};
  Clock::time_point first_begin_{};
  Clock::time_point last_end_{};
  std::uint64_t events_total_ = 0;
  double wall_seconds_total_ = 0;
  std::size_t max_queue_depth_ = 0;
};

}  // namespace ppsim::obs
