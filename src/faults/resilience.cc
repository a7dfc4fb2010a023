#include "faults/resilience.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace ppsim::faults {

namespace {

/// Mean of `field` over samples with t in [from, to]; `fallback` when the
/// range holds no samples.
template <typename Get>
double mean_over(const std::vector<obs::TrafficSample>& samples,
                 sim::Time from, sim::Time to, Get get, double fallback,
                 bool* any = nullptr) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (s.t < from || s.t > to) continue;
    sum += get(s);
    ++n;
  }
  if (any != nullptr) *any = n > 0;
  return n == 0 ? fallback : sum / static_cast<double>(n);
}

}  // namespace

std::vector<WindowResilience> analyze_resilience(
    const FaultPlan& plan, const std::vector<obs::TrafficSample>& samples,
    const ResilienceOptions& options) {
  std::vector<WindowResilience> rows;
  rows.reserve(plan.windows.size());
  const auto continuity = [](const obs::TrafficSample& s) {
    return s.avg_continuity;
  };
  const auto share = [](const obs::TrafficSample& s) {
    return s.same_isp_share_interval;
  };
  for (std::size_t i = 0; i < plan.windows.size(); ++i) {
    const FaultWindow& w = plan.windows[i];
    WindowResilience r;
    r.index = i;
    r.kind = w.kind;
    r.start = w.start;
    r.end = w.end;
    r.label = w.label;

    bool have_baseline = false;
    r.baseline_continuity =
        mean_over(samples, w.start - options.lookback, w.start, continuity,
                  /*fallback=*/0.0, &have_baseline);
    r.share_before = mean_over(samples, w.start - options.lookback, w.start,
                               share, 0.0);
    r.share_during = mean_over(samples, w.start, w.end, share, 0.0);
    r.share_after =
        mean_over(samples, w.end, w.end + options.lookback, share, 0.0);

    // Walk forward from the window start: track the worst continuity until
    // the series climbs back over the recovery threshold after the window
    // closed.
    const double threshold = kRecoverFraction * r.baseline_continuity;
    double worst = 2.0;
    bool any_in_flight = false;
    for (const auto& s : samples) {
      if (s.t < w.start) continue;
      any_in_flight = true;
      worst = std::min(worst, s.avg_continuity);
      if (s.t >= w.end && s.avg_continuity >= threshold) {
        r.recovered = true;
        r.time_to_recover_s = (s.t - w.end).as_seconds();
        break;
      }
    }
    r.has_samples = have_baseline && any_in_flight;
    r.min_continuity = any_in_flight ? worst : 0.0;
    r.dip_depth = std::max(0.0, r.baseline_continuity - r.min_continuity);
    rows.push_back(std::move(r));
  }
  return rows;
}

void print_fault_timeline(std::ostream& os,
                          const std::vector<WindowResilience>& rows) {
  os << "Fault timeline (continuity dip & recovery per window; intra-ISP "
        "share before/during/after)\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "%3s  %-16s %-20s %13s  %6s %6s %6s  %9s  %s\n", "#", "kind",
                "label", "window[s]", "base", "min", "dip", "recover",
                "share b/d/a");
  os << line;
  for (const WindowResilience& r : rows) {
    char window[32];
    std::snprintf(window, sizeof(window), "%.0f-%.0f", r.start.as_seconds(),
                  r.end.as_seconds());
    char recover[16];
    if (!r.has_samples)
      std::snprintf(recover, sizeof(recover), "%s", "n/a");
    else if (r.recovered)
      std::snprintf(recover, sizeof(recover), "%.0fs", r.time_to_recover_s);
    else
      std::snprintf(recover, sizeof(recover), "%s", "never");
    std::snprintf(line, sizeof(line),
                  "%3zu  %-16s %-20s %13s  %5.1f%% %5.1f%% %5.1f%%  %9s  "
                  "%.0f/%.0f/%.0f%%\n",
                  r.index, std::string(to_string(r.kind)).c_str(),
                  r.label.empty() ? "-" : r.label.c_str(), window,
                  100 * r.baseline_continuity, 100 * r.min_continuity,
                  100 * r.dip_depth, recover, 100 * r.share_before,
                  100 * r.share_during, 100 * r.share_after);
    os << line;
  }
}

}  // namespace ppsim::faults
