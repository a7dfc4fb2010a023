#include "analysis/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ppsim::analysis {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{4.0}), 4.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1, 2, 3, 4}), 2.5);
}

TEST(StatsTest, SumBasics) {
  EXPECT_DOUBLE_EQ(sum(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(sum(std::vector<double>{1.5, 2.5}), 4.0);
}

TEST(StatsTest, StddevKnownValue) {
  // Sample stddev of {2,4,4,4,5,5,7,9} is ~2.138 (n-1 denominator).
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(xs), 2.1381, 1e-3);
}

TEST(StatsTest, StddevDegenerate) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3, 3, 3}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
  EXPECT_DOUBLE_EQ(median(xs), 25);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 17.5);
}

TEST(StatsTest, PercentileUnsortedInput) {
  std::vector<double> xs = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonUncorrelated) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {1, -1, 1, -1};
  EXPECT_NEAR(pearson(xs, ys), 0.0, 0.5);
}

TEST(StatsTest, PearsonDegenerate) {
  std::vector<double> xs = {1, 1, 1};
  std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);  // constant side => undefined => 0
  EXPECT_DOUBLE_EQ(pearson(std::vector<double>{1.0}, std::vector<double>{2.0}),
                   0.0);
}

}  // namespace
}  // namespace ppsim::analysis
