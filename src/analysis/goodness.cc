#include "analysis/goodness.h"

#include <vector>

#include "analysis/stats.h"

namespace ppsim::analysis {

BootstrapInterval bootstrap_mean(std::span<const double> samples,
                                 sim::Rng& rng, int resamples,
                                 double confidence) {
  BootstrapInterval out;
  if (samples.empty()) return out;
  out.estimate = mean(samples);
  std::vector<double> stats;
  stats.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> resample(samples.size());
  for (int r = 0; r < resamples; ++r) {
    for (auto& x : resample)
      x = samples[static_cast<std::size_t>(rng.next_below(samples.size()))];
    stats.push_back(mean(resample));
  }
  const double alpha = (1.0 - confidence) / 2.0;
  out.lo = percentile(stats, alpha * 100.0);
  out.hi = percentile(stats, (1.0 - alpha) * 100.0);
  return out;
}

}  // namespace ppsim::analysis
