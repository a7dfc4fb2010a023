#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "faults/plan.h"
#include "obs/sampler.h"
#include "sim/time.h"

namespace ppsim::faults {

/// Resilience verdict for one fault window, computed from the obs layer's
/// traffic time-series (obs::TrafficSample): how deep playback continuity
/// dipped, how long the swarm took to climb back to its pre-fault level,
/// and what the intra-ISP traffic share did before/during/after the window
/// — the paper's locality metric under stress.
struct WindowResilience {
  std::size_t index = 0;
  FaultKind kind = FaultKind::kTrackerOutage;
  sim::Time start;
  sim::Time end;
  std::string label;

  bool has_samples = false;     // false when the series doesn't cover the window
  double baseline_continuity = 0;  // mean over the lookback before start
  double min_continuity = 0;       // worst sample from start until recovery
  double dip_depth = 0;            // baseline - min (clamped at 0)
  bool recovered = false;
  /// Seconds from window end until continuity first reached
  /// kRecoverFraction * baseline (0 when it never dipped below it).
  double time_to_recover_s = 0;

  /// Intra-ISP share of interval traffic (same_isp_share_interval), averaged
  /// over the lookback before, the window itself, and the lookback after.
  double share_before = 0;
  double share_during = 0;
  double share_after = 0;
};

/// Recovery threshold relative to baseline continuity.
inline constexpr double kRecoverFraction = 0.95;

struct ResilienceOptions {
  /// Averaging horizon before the window (baseline) and after it (the
  /// "after" share column).
  sim::Time lookback = sim::Time::seconds(60);
};

/// Lines each plan window up against the sampled time-series. Samples must
/// be in time order (as written by the sampler / read_samples_ndjson).
std::vector<WindowResilience> analyze_resilience(
    const FaultPlan& plan, const std::vector<obs::TrafficSample>& samples,
    const ResilienceOptions& options = {});

/// The ppsim-analyze fault-timeline table: one row per window.
void print_fault_timeline(std::ostream& os,
                          const std::vector<WindowResilience>& rows);

}  // namespace ppsim::faults
