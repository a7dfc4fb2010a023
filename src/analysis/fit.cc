#include "analysis/fit.h"

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"

namespace ppsim::analysis {

namespace {
// The grid fit_stretched_exponential searches `c` over.
constexpr double kStretchMin = 0.05;
constexpr double kStretchMax = 1.0;
constexpr double kStretchStep = 0.05;
}  // namespace

LinearFit least_squares(std::span<const double> xs,
                        std::span<const double> ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
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
  if (sxx <= 0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  if (syy <= 0) {
    fit.r2 = 1.0;  // y constant and perfectly predicted by a flat line
    return fit;
  }
  double ss_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = ys[i] - (fit.slope * xs[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r2 = 1.0 - ss_res / syy;
  return fit;
}

ZipfFit fit_zipf(std::span<const double> ranked) {
  std::vector<double> log_rank;
  std::vector<double> log_val;
  log_rank.reserve(ranked.size());
  log_val.reserve(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i] <= 0) continue;
    log_rank.push_back(std::log(static_cast<double>(i + 1)));
    log_val.push_back(std::log(ranked[i]));
  }
  LinearFit lin = least_squares(log_rank, log_val);
  return ZipfFit{-lin.slope, lin.r2};
}

StretchedExpFit fit_stretched_exponential(std::span<const double> ranked) {
  StretchedExpFit best;
  best.r2 = -1e300;
  if (ranked.size() < 2) {
    best.r2 = 0;
    return best;
  }
  std::vector<double> log_rank;
  log_rank.reserve(ranked.size());
  std::vector<double> positive;
  positive.reserve(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i] <= 0) continue;
    log_rank.push_back(std::log(static_cast<double>(i + 1)));
    positive.push_back(ranked[i]);
  }
  if (positive.size() < 2) {
    best.r2 = 0;
    return best;
  }
  std::vector<double> yc(positive.size());
  for (double c = kStretchMin; c <= kStretchMax + 1e-9; c += kStretchStep) {
    for (std::size_t i = 0; i < positive.size(); ++i)
      yc[i] = std::pow(positive[i], c);
    LinearFit lin = least_squares(log_rank, yc);
    if (lin.r2 > best.r2) {
      best.c = c;
      best.a = -lin.slope;
      best.b = lin.intercept;
      best.r2 = lin.r2;
    }
  }
  return best;
}

std::vector<double> stretched_exponential_series(std::size_t n, double c,
                                                 double a) {
  // Boundary condition y_n = 1 gives b = 1 + a log n (paper Eq. (2)).
  const double b = 1.0 + a * std::log(static_cast<double>(n));
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    const double yc = b - a * std::log(static_cast<double>(i));
    out.push_back(std::pow(std::max(yc, 0.0), 1.0 / c));
  }
  return out;
}

}  // namespace ppsim::analysis
