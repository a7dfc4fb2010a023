#include <gtest/gtest.h>

#include <cmath>

#include "workload/campaign.h"
#include "workload/scenario.h"

namespace ppsim::workload {
namespace {

TEST(IspMixTest, SampleFollowsWeights) {
  IspMix mix;
  mix[net::IspCategory::kTele] = 0.7;
  mix[net::IspCategory::kCnc] = 0.3;
  sim::Rng rng(5);
  int tele = 0, cnc = 0, other = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    switch (mix.sample(rng)) {
      case net::IspCategory::kTele:
        ++tele;
        break;
      case net::IspCategory::kCnc:
        ++cnc;
        break;
      default:
        ++other;
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_NEAR(static_cast<double>(tele) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(cnc) / n, 0.3, 0.02);
}

TEST(ScenarioTest, PopularChannelShape) {
  ScenarioSpec s = popular_channel();
  EXPECT_GT(s.viewers, 200);
  // TELE-dominated audience, as in Figure 2(a).
  EXPECT_GT(s.mix[net::IspCategory::kTele], s.mix[net::IspCategory::kCnc]);
  EXPECT_GT(s.mix[net::IspCategory::kTele], 0.5);
  EXPECT_GT(s.mix[net::IspCategory::kForeign], 0.0);
}

TEST(ScenarioTest, UnpopularChannelShape) {
  ScenarioSpec s = unpopular_channel();
  EXPECT_LT(s.viewers, popular_channel().viewers / 2);
  // CNC slightly ahead of TELE, as in Figure 3(a).
  EXPECT_GT(s.mix[net::IspCategory::kCnc], s.mix[net::IspCategory::kTele]);
  // Scarce foreign audience (the paper's explanation for Fig 5).
  EXPECT_LT(s.mix[net::IspCategory::kForeign], 0.06);
}

TEST(ScenarioTest, ChannelsDiffer) {
  EXPECT_NE(popular_channel().channel.id, unpopular_channel().channel.id);
}

TEST(AccessClassTest, CategoryMapping) {
  sim::Rng rng(1);
  EXPECT_EQ(access_class_for(net::IspCategory::kCer, rng),
            net::AccessClass::kCampus);
  EXPECT_EQ(access_class_for(net::IspCategory::kTele, rng),
            net::AccessClass::kAdsl);
  EXPECT_EQ(access_class_for(net::IspCategory::kCnc, rng),
            net::AccessClass::kAdsl);
  // Foreign access is mixed cable/campus.
  bool saw_cable = false, saw_campus = false;
  for (int i = 0; i < 200; ++i) {
    auto c = access_class_for(net::IspCategory::kForeign, rng);
    saw_cable |= (c == net::AccessClass::kCable);
    saw_campus |= (c == net::AccessClass::kCampus);
  }
  EXPECT_TRUE(saw_cable);
  EXPECT_TRUE(saw_campus);
}

TEST(NatProbabilityTest, ResidentialHigherThanInfrastructure) {
  EXPECT_GT(nat_probability(net::AccessClass::kAdsl), 0.5);
  EXPECT_GT(nat_probability(net::AccessClass::kCable), 0.5);
  EXPECT_LT(nat_probability(net::AccessClass::kCampus), 0.3);
  EXPECT_LT(nat_probability(net::AccessClass::kFiber),
            nat_probability(net::AccessClass::kAdsl));
  EXPECT_DOUBLE_EQ(nat_probability(net::AccessClass::kDatacenter), 0.0);
}

TEST(CampaignTest, Deterministic) {
  CampaignConfig cfg;
  auto a = day_scenario(popular_channel(), cfg, 5);
  auto b = day_scenario(popular_channel(), cfg, 5);
  EXPECT_EQ(a.viewers, b.viewers);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_DOUBLE_EQ(a.mix[net::IspCategory::kForeign],
                   b.mix[net::IspCategory::kForeign]);
}

TEST(CampaignTest, DaysDiffer) {
  CampaignConfig cfg;
  auto d1 = day_scenario(popular_channel(), cfg, 1);
  auto d2 = day_scenario(popular_channel(), cfg, 2);
  EXPECT_NE(d1.seed, d2.seed);
  // Audience/foreign share drift day to day (almost surely different).
  EXPECT_TRUE(d1.viewers != d2.viewers ||
              d1.mix[net::IspCategory::kForeign] !=
                  d2.mix[net::IspCategory::kForeign]);
}

TEST(CampaignTest, TwentyEightDays) {
  CampaignConfig cfg;
  auto days = campaign_scenarios(popular_channel(), cfg);
  EXPECT_EQ(days.size(), 28u);
  for (const auto& d : days) {
    EXPECT_GE(d.viewers, 30);
    EXPECT_GE(d.mix[net::IspCategory::kForeign], 0.002);
    EXPECT_LE(d.mix[net::IspCategory::kForeign], 0.45);
  }
}

TEST(CampaignTest, ForeignShareSwingsMoreThanAudience) {
  // The design calls for foreign-share volatility >> audience volatility
  // (it drives the Mason probe's unstable locality in Figure 6).
  CampaignConfig cfg;
  auto base = popular_channel();
  auto days = campaign_scenarios(base, cfg);
  double max_aud = 0, min_aud = 1e9, max_for = 0, min_for = 1e9;
  for (const auto& d : days) {
    max_aud = std::max(max_aud, static_cast<double>(d.viewers));
    min_aud = std::min(min_aud, static_cast<double>(d.viewers));
    max_for = std::max(max_for, d.mix[net::IspCategory::kForeign]);
    min_for = std::min(min_for, d.mix[net::IspCategory::kForeign]);
  }
  EXPECT_GT(max_for / min_for, max_aud / min_aud);
}

TEST(CampaignTest, WeekendBoost) {
  CampaignConfig cfg;
  cfg.audience_sigma = 0.0;  // isolate the weekend effect
  auto base = popular_channel();
  auto mon = day_scenario(base, cfg, 1);
  auto sat = day_scenario(base, cfg, 6);
  EXPECT_GT(sat.viewers, mon.viewers);
  EXPECT_NEAR(static_cast<double>(sat.viewers) / mon.viewers,
              kWeekendBoost, 0.02);
}

}  // namespace
}  // namespace ppsim::workload
