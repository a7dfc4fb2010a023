#include "workload/campaign.h"

#include <algorithm>
#include <cmath>

#include "sim/rng.h"

namespace ppsim::workload {

ScenarioSpec day_scenario(const ScenarioSpec& base,
                          const CampaignConfig& config, int day) {
  // Deterministic per-day stream, independent of call order.
  sim::Rng rng(sim::hash_combine(config.seed,
                                 sim::hash_combine(base.seed,
                                                   static_cast<std::uint64_t>(day))));
  ScenarioSpec s = base;
  s.name = base.name + "-day" + std::to_string(day);
  s.seed = sim::hash_combine(base.seed, static_cast<std::uint64_t>(day) * 7919);

  double scale = rng.lognormal_median(1.0, config.audience_sigma);
  const int dow = (day - 1) % 7;  // 0 = Monday
  if (dow >= 5) scale *= kWeekendBoost;
  s.viewers = std::max(30, static_cast<int>(std::lround(base.viewers * scale)));

  // Foreign audience swings independently of the Chinese audience.
  const double foreign_mult = rng.lognormal_median(1.0, kForeignSigma);
  s.mix[net::IspCategory::kForeign] = std::clamp(
      base.mix[net::IspCategory::kForeign] * foreign_mult, 0.002, 0.45);

  return s;
}

std::vector<ScenarioSpec> campaign_scenarios(const ScenarioSpec& base,
                                             const CampaignConfig& config) {
  std::vector<ScenarioSpec> out;
  out.reserve(static_cast<std::size_t>(kCampaignDays));
  for (int day = 1; day <= kCampaignDays; ++day)
    out.push_back(day_scenario(base, config, day));
  return out;
}

}  // namespace ppsim::workload
