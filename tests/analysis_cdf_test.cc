#include "analysis/cdf.h"

#include <gtest/gtest.h>

#include <vector>

namespace ppsim::analysis {
namespace {

TEST(CumulativeShareTest, SortsDescendingAndNormalizes) {
  std::vector<double> xs = {1, 7, 2};
  auto curve = cumulative_share(xs);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0], 0.7);
  EXPECT_DOUBLE_EQ(curve[1], 0.9);
  EXPECT_DOUBLE_EQ(curve[2], 1.0);
}

TEST(CumulativeShareTest, AllZeroContributions) {
  std::vector<double> xs = {0, 0, 0};
  auto curve = cumulative_share(xs);
  for (double v : curve) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(cumulative_share({}).empty());
  EXPECT_DOUBLE_EQ(top_share({}, 0.1), 0.0);
}

TEST(TopShareTest, TopTenPercent) {
  // 10 peers; the single top peer contributes 91/100.
  std::vector<double> xs = {91, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(top_share(xs, 0.10), 0.91);
}

TEST(TopShareTest, RoundsUpPeerCount) {
  // 15 peers, top 10% => ceil(1.5) = 2 peers.
  std::vector<double> xs(15, 1.0);
  xs[0] = 10;
  xs[1] = 5;
  const double expected = 15.0 / (15.0 + 13.0);
  EXPECT_NEAR(top_share(xs, 0.10), expected, 1e-12);
}

TEST(TopShareTest, FullFractionIsEverything) {
  std::vector<double> xs = {3, 2, 1};
  EXPECT_DOUBLE_EQ(top_share(xs, 1.0), 1.0);
}

TEST(TopShareTest, UniformContributionsAreProportional) {
  std::vector<double> xs(100, 2.0);
  EXPECT_NEAR(top_share(xs, 0.10), 0.10, 1e-12);
  EXPECT_NEAR(top_share(xs, 0.50), 0.50, 1e-12);
}

}  // namespace
}  // namespace ppsim::analysis
