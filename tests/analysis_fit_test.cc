#include "analysis/fit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "sim/rng.h"

namespace ppsim::analysis {
namespace {

TEST(LeastSquaresTest, ExactLine) {
  std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys = {1, 3, 5, 7, 9};  // y = 2x + 1
  auto fit = least_squares(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LeastSquaresTest, NoisyLineHighR2) {
  sim::Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 5.0 + rng.normal(0, 2.0));
  }
  auto fit = least_squares(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
  EXPECT_NEAR(fit.intercept, -5.0, 2.0);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(LeastSquaresTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(least_squares({}, {}).r2, 0.0);
  std::vector<double> one = {1.0};
  EXPECT_DOUBLE_EQ(least_squares(one, one).slope, 0.0);
  // Constant x: no slope defined.
  std::vector<double> xs = {2, 2, 2};
  std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(least_squares(xs, ys).slope, 0.0);
  // Constant y: flat line fits perfectly.
  EXPECT_DOUBLE_EQ(least_squares(ys, xs).r2, 1.0);
  EXPECT_DOUBLE_EQ(least_squares(ys, xs).slope, 0.0);
}

TEST(ZipfFitTest, RecoversAlphaOnSyntheticZipf) {
  std::vector<double> ranked;
  for (int i = 1; i <= 500; ++i)
    ranked.push_back(1000.0 * std::pow(i, -0.8));
  auto fit = fit_zipf(ranked);
  EXPECT_NEAR(fit.alpha, 0.8, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(ZipfFitTest, SkipsNonPositive) {
  std::vector<double> ranked = {100, 10, 0, 0};
  auto fit = fit_zipf(ranked);
  EXPECT_GT(fit.alpha, 0.0);
}

TEST(StretchedExpSeriesTest, BoundaryConditionYnIsOne) {
  auto series = stretched_exponential_series(326, 0.35, 5.483);
  ASSERT_EQ(series.size(), 326u);
  EXPECT_NEAR(series.back(), 1.0, 1e-9);
  // Monotone non-increasing in rank.
  for (std::size_t i = 1; i < series.size(); ++i)
    EXPECT_LE(series[i], series[i - 1] + 1e-12);
}

TEST(StretchedExpSeriesTest, PaperEquation2) {
  // b = 1 + a log n (Eq. 2): check against the Fig 11(b) parameters.
  const double a = 5.483, c = 0.35;
  const std::size_t n = 326;
  const double b = 1.0 + a * std::log(static_cast<double>(n));
  EXPECT_NEAR(b, 32.7, 0.2);  // paper reports b = 32.069 for fitted data
  auto series = stretched_exponential_series(n, c, a);
  // y_1^c = b  =>  y_1 = b^(1/c).
  EXPECT_NEAR(series.front(), std::pow(b, 1.0 / c), 1e-6);
}

TEST(StretchedExpFitTest, PerfectDataPerfectFit) {
  auto series = stretched_exponential_series(300, 0.35, 5.0);
  auto fit = fit_stretched_exponential(series);
  EXPECT_NEAR(fit.c, 0.35, 0.051);  // grid resolution is 0.05
  EXPECT_GT(fit.r2, 0.999);
}

TEST(StretchedExpFitTest, SeDataBeatsZipfModel) {
  // The paper's core fitting claim: request counts look SE, not Zipf. On
  // synthetic SE data, the SE fit's R2 must beat the log-log line's R2.
  auto series = stretched_exponential_series(300, 0.3, 6.0);
  auto se = fit_stretched_exponential(series);
  auto zipf = fit_zipf(series);
  EXPECT_GT(se.r2, zipf.r2);
  EXPECT_GT(se.r2, 0.99);
  EXPECT_LT(zipf.r2, 0.99);
}

TEST(StretchedExpFitTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_stretched_exponential({}).r2, 0.0);
  std::vector<double> one = {5.0};
  EXPECT_DOUBLE_EQ(fit_stretched_exponential(one).r2, 0.0);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(fit_stretched_exponential(zeros).r2, 0.0);
}

/// Property sweep: the SE fit recovers (c, a) over a realistic grid of
/// stretch exponents, slopes, and sizes (the paper's fits span c=0.2-0.4,
/// a=1.3-10.5, n=89-326).
class SeFitRecovery
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(SeFitRecovery, RecoversParameters) {
  const auto [c, a, n] = GetParam();
  auto series = stretched_exponential_series(static_cast<std::size_t>(n), c, a);
  auto fit = fit_stretched_exponential(series);
  EXPECT_NEAR(fit.c, c, 0.051) << "c not recovered";
  EXPECT_GT(fit.r2, 0.995);
  // When c lands on the grid exactly, a and b are recovered tightly.
  if (std::abs(fit.c - c) < 1e-9) {
    EXPECT_NEAR(fit.a, a, a * 0.02);
    const double b = 1.0 + a * std::log(n);
    EXPECT_NEAR(fit.b, b, b * 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeFitRecovery,
    ::testing::Combine(::testing::Values(0.2, 0.3, 0.35, 0.4),
                       ::testing::Values(1.334, 5.483, 10.486),
                       ::testing::Values(89, 226, 326)));

TEST(StretchedExpFitTest, RobustToMildNoise) {
  sim::Rng rng(9);
  auto series = stretched_exponential_series(250, 0.35, 5.0);
  for (auto& y : series) y = std::max(0.5, y * rng.lognormal_median(1.0, 0.1));
  std::sort(series.begin(), series.end(), std::greater<>());
  auto fit = fit_stretched_exponential(series);
  EXPECT_GT(fit.r2, 0.95);  // the paper reports R2 ~0.95-0.99 on real data
  EXPECT_NEAR(fit.c, 0.35, 0.15);
}

}  // namespace
}  // namespace ppsim::analysis
