#include "obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

namespace ppsim::obs {

std::vector<double> RunProfiler::dispatch_time_bounds() {
  return {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
}

void RunProfiler::on_event_begin(sim::Time /*now*/, std::uint64_t /*seq*/,
                                 const char* /*category*/,
                                 std::size_t queue_depth) {
  max_queue_depth_ = std::max(max_queue_depth_, queue_depth);
  if (!timed_) return;
  event_begin_ = Clock::now();
  if (events_total_ == 0) first_begin_ = event_begin_;
}

void RunProfiler::on_event_end(sim::Time /*now*/, const char* category) {
  if (timed_) last_end_ = Clock::now();
  const double elapsed =
      timed_ ? std::chrono::duration<double>(last_end_ - event_begin_).count()
             : 0.0;
  auto it = stats_.find(std::string_view(category));
  if (it == stats_.end()) it = stats_.emplace(category, CategoryStats{}).first;
  ++it->second.events;
  ++events_total_;
  if (!timed_) return;
  it->second.wall_seconds += elapsed;
  it->second.dispatch_time.observe(elapsed);
  wall_seconds_total_ += elapsed;
}

void RunProfiler::export_metrics(MetricsRegistry& registry) const {
  for (const auto& [name, cs] : stats_)
    registry
        .counter("sim_events_dispatched",
                 {{"category", name.empty() ? "(untagged)" : name}})
        .inc(cs.events);
  registry.gauge("sim_peak_queue_depth")
      .set(static_cast<double>(max_queue_depth_));
}

void RunProfiler::print(std::ostream& os) const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "run profile: %llu events in %.3f s wall (%.0f events/s), "
                "max queue depth %zu\n",
                static_cast<unsigned long long>(events_total_),
                wall_seconds_total_, events_per_second(), max_queue_depth_);
  os << buf;
  std::vector<std::pair<std::string, CategoryStats>> rows(stats_.begin(),
                                                          stats_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.wall_seconds != b.second.wall_seconds)
      return a.second.wall_seconds > b.second.wall_seconds;
    return a.first < b.first;
  });
  std::snprintf(buf, sizeof buf, "  %-24s %12s %12s %6s %10s %10s\n",
                "category", "events", "wall_s", "%", "p50", "p99");
  os << buf;
  const auto quantile_us = [](const Histogram& h, double q, char* out,
                              std::size_t n) {
    if (h.count() == 0) {
      // Empty histogram (every category of an untimed profiler):
      // quantile() is NaN, which must not leak into the table.
      std::snprintf(out, n, "%s", "-");
      return;
    }
    const double v = h.quantile(q);
    if (std::isfinite(v))
      std::snprintf(out, n, "<=%.3gus", v * 1e6);
    else
      std::snprintf(out, n, "%s", ">0.1s");
  };
  for (const auto& [name, cs] : rows) {
    char p50[16], p99[16];
    quantile_us(cs.dispatch_time, 0.5, p50, sizeof p50);
    quantile_us(cs.dispatch_time, 0.99, p99, sizeof p99);
    std::snprintf(buf, sizeof buf, "  %-24s %12llu %12.4f %5.1f%% %10s %10s\n",
                  name.empty() ? "(untagged)" : name.c_str(),
                  static_cast<unsigned long long>(cs.events), cs.wall_seconds,
                  wall_seconds_total_ <= 0
                      ? 0.0
                      : 100.0 * cs.wall_seconds / wall_seconds_total_,
                  p50, p99);
    os << buf;
  }
}

}  // namespace ppsim::obs
