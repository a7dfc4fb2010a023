#include "analysis/goodness.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.h"

namespace ppsim::analysis {
namespace {

TEST(BootstrapTest, MeanIntervalCoversTruth) {
  sim::Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.normal(10.0, 2.0));
  auto interval = bootstrap_mean(samples, rng);
  EXPECT_NEAR(interval.estimate, 10.0, 0.5);
  EXPECT_LT(interval.lo, interval.estimate);
  EXPECT_GT(interval.hi, interval.estimate);
  EXPECT_LT(interval.lo, 10.0);
  EXPECT_GT(interval.hi, 10.0);
  // The 95% interval for n=500, sd=2 is roughly +-0.18.
  EXPECT_LT(interval.hi - interval.lo, 0.8);
}

TEST(BootstrapTest, EmptySamples) {
  sim::Rng rng(1);
  auto interval = bootstrap_mean({}, rng);
  EXPECT_DOUBLE_EQ(interval.estimate, 0.0);
  EXPECT_DOUBLE_EQ(interval.lo, 0.0);
  EXPECT_DOUBLE_EQ(interval.hi, 0.0);
}

TEST(BootstrapTest, DeterministicGivenRng) {
  std::vector<double> samples = {1, 2, 3, 4, 5, 6, 7, 8};
  sim::Rng a(5), b(5);
  auto ia = bootstrap_mean(samples, a);
  auto ib = bootstrap_mean(samples, b);
  EXPECT_DOUBLE_EQ(ia.lo, ib.lo);
  EXPECT_DOUBLE_EQ(ia.hi, ib.hi);
}

}  // namespace
}  // namespace ppsim::analysis
