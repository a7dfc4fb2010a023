#include "sim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace ppsim::sim {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(99);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  // Children have distinct streams.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkDeterministic) {
  Rng p1(7), p2(7);
  Rng c1 = p1.fork(5), c2 = p2.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

class RngSeededTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeededTest, NextBelowInRange) {
  Rng rng(GetParam());
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 100ULL, 1'000'000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(n), n);
  }
}

TEST_P(RngSeededTest, UniformIntInclusiveBounds) {
  Rng rng(GetParam());
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST_P(RngSeededTest, UniformInHalfOpenUnit) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST_P(RngSeededTest, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double acc = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST_P(RngSeededTest, ExponentialMean) {
  Rng rng(GetParam());
  double acc = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(3.0);
  EXPECT_NEAR(acc / n, 3.0, 0.15);
}

TEST_P(RngSeededTest, NormalMoments) {
  Rng rng(GetParam());
  double acc = 0, acc2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal(10.0, 2.0);
    acc += x;
    acc2 += x * x;
  }
  const double mean = acc / n;
  const double var = acc2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST_P(RngSeededTest, LognormalMedian) {
  Rng rng(GetParam());
  std::vector<double> xs(20001);
  for (auto& x : xs) x = rng.lognormal_median(5.0, 0.5);
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 5.0, 0.3);
}

TEST_P(RngSeededTest, ParetoBoundedBelow) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST_P(RngSeededTest, WeibullPositive) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.weibull(10.0, 0.6), 0.0);
}

TEST_P(RngSeededTest, ChanceExtremes) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST_P(RngSeededTest, ChanceFrequency) {
  Rng rng(GetParam());
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST_P(RngSeededTest, WeightedIndexRespectsWeights) {
  Rng rng(GetParam());
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST_P(RngSeededTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(GetParam());
  std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  int counts[4] = {};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  for (int c : counts) EXPECT_GT(c, 1500);
}

TEST_P(RngSeededTest, SampleDistinctAndFromSource) {
  Rng rng(GetParam());
  std::vector<int> v;
  for (int i = 0; i < 50; ++i) v.push_back(i);
  auto s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (int x : s) EXPECT_TRUE(x >= 0 && x < 50);
}

TEST_P(RngSeededTest, SampleMoreThanAvailableReturnsAll) {
  Rng rng(GetParam());
  std::vector<int> v = {1, 2, 3};
  auto s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 3u);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq, (std::set<int>{1, 2, 3}));
}

TEST_P(RngSeededTest, SampleOfMovedVectorMatchesSampleOfCopy) {
  // sample() takes its vector by value; moving it in must draw exactly
  // what sampling a copy draws, for both the partial and the full shuffle.
  std::vector<int> v;
  for (int i = 0; i < 50; ++i) v.push_back(i);
  for (std::size_t k : {std::size_t{10}, std::size_t{50}, std::size_t{80}}) {
    Rng copied(GetParam()), moved(GetParam());
    const std::vector<int> from_copy = copied.sample(v, k);
    std::vector<int> scratch = v;
    EXPECT_EQ(moved.sample(std::move(scratch), k), from_copy) << "k=" << k;
    EXPECT_EQ(moved.next_u64(), copied.next_u64()) << "k=" << k;
  }
}

TEST_P(RngSeededTest, ShufflePreservesElements) {
  Rng rng(GetParam());
  std::vector<int> v;
  for (int i = 0; i < 30; ++i) v.push_back(i);
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeededTest,
                         ::testing::Values(1, 42, 12345, 0xDEADBEEF,
                                           0xFFFFFFFFFFFFFFFFULL));

TEST(Mix64Test, StableAndSpreads) {
  EXPECT_EQ(mix64(1), mix64(1));
  EXPECT_NE(mix64(1), mix64(2));
  // Avalanche smoke check: flipping one input bit changes many output bits.
  const std::uint64_t a = mix64(0x1234);
  const std::uint64_t b = mix64(0x1235);
  EXPECT_GT(__builtin_popcountll(a ^ b), 16);
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

}  // namespace
}  // namespace ppsim::sim
