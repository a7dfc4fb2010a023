#include "analysis/cdf.h"

#include <algorithm>
#include <cmath>

namespace ppsim::analysis {

std::vector<double> cumulative_share(std::span<const double> contributions) {
  std::vector<double> sorted(contributions.begin(), contributions.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double total = 0;
  for (double v : sorted) total += v;
  std::vector<double> out;
  out.reserve(sorted.size());
  double acc = 0;
  for (double v : sorted) {
    acc += v;
    out.push_back(total > 0 ? acc / total : 0);
  }
  return out;
}

double top_share(std::span<const double> contributions, double fraction) {
  if (contributions.empty() || fraction <= 0) return 0;
  auto curve = cumulative_share(contributions);
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(curve.size())));
  const std::size_t idx = std::min(curve.size(), std::max<std::size_t>(k, 1));
  return curve[idx - 1];
}

}  // namespace ppsim::analysis
