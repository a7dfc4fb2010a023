#pragma once

#include <cstdint>
#include <vector>

#include "workload/scenario.h"

namespace ppsim::workload {

/// Day-to-day modulation of a channel's audience over a multi-day
/// measurement campaign (paper Figure 6: 28 daily measurements).
///
/// Two effects drive the variance the paper observes:
///  - the overall audience breathes (weekday/weekend, program schedule);
///  - the *foreign* share of a Chinese channel swings wildly, because a
///    program popular in China is not necessarily popular abroad — this is
///    the paper's explanation for the Mason probe's unstable locality.
struct CampaignConfig {
  /// Log-space sigma of the day's overall audience scale factor.
  double audience_sigma = 0.18;
  std::uint64_t seed = 42;
};

inline constexpr int kCampaignDays = 28;
/// Log-space sigma of the day's foreign-share multiplier (large on
/// purpose; see CampaignConfig).
inline constexpr double kForeignSigma = 0.85;
/// Weekend audiences are this much larger (day 1 = Monday).
inline constexpr double kWeekendBoost = 1.25;

/// Derives the concrete scenario measured on `day` (1-based) from the base
/// scenario. Deterministic in (config.seed, day).
ScenarioSpec day_scenario(const ScenarioSpec& base,
                          const CampaignConfig& config, int day);

/// All kCampaignDays daily scenarios.
std::vector<ScenarioSpec> campaign_scenarios(const ScenarioSpec& base,
                                             const CampaignConfig& config);

}  // namespace ppsim::workload
