#include "baseline/policies.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/asn_db.h"
#include "proto/selection.h"
#include "sim/rng.h"

namespace ppsim::baseline {
namespace {

std::vector<net::IpAddress> ips(std::initializer_list<std::uint32_t> vs) {
  std::vector<net::IpAddress> out;
  for (auto v : vs) out.emplace_back(v);
  return out;
}

TEST(ReferralSelectionTest, PrefersFreshList) {
  proto::ReferralSelection policy;
  sim::Rng rng(1);
  auto fresh = ips({1, 2, 3});
  auto pool = ips({10, 11, 12, 13});
  auto picked = policy.choose(fresh, pool, {}, 3, rng);
  ASSERT_EQ(picked.size(), 3u);
  for (const auto& ip : picked) EXPECT_LE(ip.value(), 3u);
}

TEST(ReferralSelectionTest, TopsUpFromPool) {
  proto::ReferralSelection policy;
  sim::Rng rng(1);
  auto fresh = ips({1});
  auto pool = ips({10, 11, 12});
  auto picked = policy.choose(fresh, pool, {}, 3, rng);
  EXPECT_EQ(picked.size(), 3u);
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), net::IpAddress(1)) !=
              picked.end());
}

TEST(ReferralSelectionTest, RespectsExclusions) {
  proto::ReferralSelection policy;
  sim::Rng rng(1);
  auto fresh = ips({1, 2, 3});
  const auto excluded = ips({1, 2});  // sorted, as choose() requires
  auto picked = policy.choose(fresh, {}, excluded, 3, rng);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], net::IpAddress(3));
}

TEST(ReferralSelectionTest, NoDuplicatesAcrossFreshAndPool) {
  proto::ReferralSelection policy;
  sim::Rng rng(1);
  auto fresh = ips({1, 2});
  auto pool = ips({1, 2, 3});
  auto picked = policy.choose(fresh, pool, {}, 5, rng);
  std::sort(picked.begin(), picked.end());
  EXPECT_TRUE(std::adjacent_find(picked.begin(), picked.end()) ==
              picked.end());
  EXPECT_EQ(picked.size(), 3u);
}

TEST(ReferralSelectionTest, DefaultFlags) {
  proto::ReferralSelection policy;
  EXPECT_TRUE(policy.use_neighbor_referral());
  EXPECT_TRUE(policy.connect_on_arrival());
}

TEST(TrackerOnlyPolicyTest, DisablesReferral) {
  TrackerOnlyPolicy policy;
  EXPECT_FALSE(policy.use_neighbor_referral());
  EXPECT_TRUE(policy.connect_on_arrival());
}

TEST(NoRushPolicyTest, IgnoresFreshList) {
  NoRushPolicy policy;
  EXPECT_FALSE(policy.connect_on_arrival());
  EXPECT_TRUE(policy.use_neighbor_referral());
  sim::Rng rng(1);
  auto fresh = ips({1, 2, 3});
  auto pool = ips({10, 11});
  auto picked = policy.choose(fresh, pool, {}, 5, rng);
  ASSERT_EQ(picked.size(), 2u);
  for (const auto& ip : picked) EXPECT_GE(ip.value(), 10u);
}

class IspBiasedTest : public ::testing::Test {
 protected:
  IspBiasedTest() {
    db_.insert(net::Prefix(net::IpAddress(10, 0, 0, 0), 8), 1, "TELE",
               net::IspCategory::kTele);
    db_.insert(net::Prefix(net::IpAddress(20, 0, 0, 0), 8), 2, "CNC",
               net::IspCategory::kCnc);
  }
  net::AsnDatabase db_;
};

TEST_F(IspBiasedTest, StrongBiasPrefersSameIsp) {
  IspBiasedPolicy policy(db_, net::IspCategory::kTele, /*bias=*/1.0);
  sim::Rng rng(1);
  std::vector<net::IpAddress> fresh;
  for (int i = 1; i <= 10; ++i) fresh.emplace_back(net::IpAddress(10, 0, 0, static_cast<std::uint8_t>(i)));
  for (int i = 1; i <= 10; ++i) fresh.emplace_back(net::IpAddress(20, 0, 0, static_cast<std::uint8_t>(i)));
  auto picked = policy.choose(fresh, {}, {}, 10, rng);
  ASSERT_EQ(picked.size(), 10u);
  for (const auto& ip : picked)
    EXPECT_EQ(db_.category_or_foreign(ip), net::IspCategory::kTele);
}

TEST_F(IspBiasedTest, FallsBackWhenSameIspExhausted) {
  IspBiasedPolicy policy(db_, net::IspCategory::kTele, /*bias=*/1.0);
  sim::Rng rng(1);
  auto fresh = ips({0x0A000001, 0x14000001, 0x14000002});
  auto picked = policy.choose(fresh, {}, {}, 3, rng);
  EXPECT_EQ(picked.size(), 3u);
}

TEST_F(IspBiasedTest, ZeroBiasStillReturnsRequested) {
  IspBiasedPolicy policy(db_, net::IspCategory::kTele, /*bias=*/0.0);
  sim::Rng rng(1);
  auto fresh = ips({0x0A000001, 0x0A000002, 0x14000001, 0x14000002});
  auto picked = policy.choose(fresh, {}, {}, 4, rng);
  EXPECT_EQ(picked.size(), 4u);
}

TEST_F(IspBiasedTest, RespectsExclusions) {
  IspBiasedPolicy policy(db_, net::IspCategory::kTele, 1.0);
  sim::Rng rng(1);
  auto fresh = ips({0x0A000001, 0x0A000002});
  const auto excluded = ips({0x0A000001});
  auto picked = policy.choose(fresh, {}, excluded, 2, rng);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], net::IpAddress(0x0A000002));
}

TEST(PolicyFactoryTest, MakesAllStrategies) {
  net::AsnDatabase db;
  EXPECT_NE(make_policy(Strategy::kPplive), nullptr);
  EXPECT_NE(make_policy(Strategy::kTrackerOnly), nullptr);
  EXPECT_NE(make_policy(Strategy::kNoRush), nullptr);
  auto biased = make_policy(Strategy::kIspBiased, &db,
                            net::IspCategory::kTele);
  EXPECT_NE(biased, nullptr);
  // Without a database the oracle degrades to the default policy.
  auto degraded = make_policy(Strategy::kIspBiased, nullptr);
  EXPECT_TRUE(degraded->use_neighbor_referral());
}

TEST(PolicyFactoryTest, Names) {
  EXPECT_EQ(to_string(Strategy::kPplive), "pplive-referral");
  EXPECT_EQ(to_string(Strategy::kTrackerOnly), "tracker-only");
  EXPECT_EQ(to_string(Strategy::kIspBiased), "isp-biased-oracle");
  EXPECT_EQ(to_string(Strategy::kNoRush), "no-rush-referral");
}

}  // namespace
}  // namespace ppsim::baseline
