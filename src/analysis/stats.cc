#include "analysis/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ppsim::analysis {

double sum(std::span<const double> xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0;
  return sum(xs) / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0;
  const double m = mean(xs);
  double acc = 0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0) return sorted.front();
  if (p >= 100) return sorted.back();
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1 - frac) + sorted[lo + 1] * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace ppsim::analysis
