// Tests of the figure-bench harness helpers (flag parsing, the standard
// workload configs, and the multi-day merge runner).

#include <gtest/gtest.h>

#include <sstream>

#include "../bench/figures_common.h"

namespace ppsim::bench {
namespace {

Scale parse(std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("bench")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return parse_flags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlagsTest, Defaults) {
  Scale scale = parse({});
  EXPECT_EQ(scale.popular_viewers, 300);
  EXPECT_EQ(scale.minutes, 10);
  EXPECT_GT(scale.unpopular_viewers, 30);
}

TEST(BenchFlagsTest, ViewersScalesUnpopularProportionally) {
  Scale scale = parse({"--viewers", "600"});
  EXPECT_EQ(scale.popular_viewers, 600);
  EXPECT_EQ(scale.unpopular_viewers, 600 * 64 / 300);
}

TEST(BenchFlagsTest, MinutesAndSeed) {
  Scale scale = parse({"--minutes", "25", "--seed", "777"});
  EXPECT_EQ(scale.minutes, 25);
  EXPECT_EQ(scale.seed, 777u);
  // A seed is any uint64.
  EXPECT_EQ(parse({"--seed", "0"}).seed, 0u);
  EXPECT_EQ(parse({"--seed", "18446744073709551615"}).seed,
            18446744073709551615u);
}

TEST(BenchFlagsTest, RejectsUnknownMissingAndBadValues) {
  const auto error = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv = {"bench"};
    argv.insert(argv.end(), args);
    Scale scale;
    return parse_flags(static_cast<int>(argv.size()), argv.data(), &scale);
  };
  EXPECT_EQ(error({"--minutes", "7", "--seed", "3"}), "");
  EXPECT_EQ(error({"--viewer", "40"}), "unknown option: --viewer");
  EXPECT_EQ(error({"--viewers=40"}), "unknown option: --viewers=40");
  EXPECT_EQ(error({"--viewers", "40", "--minutes"}),
            "missing value for --minutes");
  EXPECT_EQ(error({"--bench-json"}), "missing value for --bench-json");
  for (const char* bad : {"abc", "12x", "1.5", "", " 3", "0", "-4",
                          "99999999999"}) {
    EXPECT_EQ(error({"--viewers", bad}),
              std::string("bad value for --viewers: ") + bad);
    EXPECT_EQ(error({"--minutes", bad}),
              std::string("bad value for --minutes: ") + bad);
  }
  for (const char* bad : {"abc", "-1", "18446744073709551616"})
    EXPECT_EQ(error({"--seed", bad}),
              std::string("bad value for --seed: ") + bad);
}

TEST(BenchConfigTest, PopularAndUnpopularDiffer) {
  Scale scale;
  scale.minutes = 4;
  auto popular = popular_config(scale, {core::tele_probe()});
  auto unpopular = unpopular_config(scale, {core::tele_probe()});
  EXPECT_GT(popular.scenario.viewers, unpopular.scenario.viewers);
  EXPECT_NE(popular.scenario.channel.id, unpopular.scenario.channel.id);
  EXPECT_NE(popular.scenario.seed, unpopular.scenario.seed);
  EXPECT_EQ(popular.scenario.duration, sim::Time::minutes(4));
}

TEST(BenchRunDaysTest, MergesAcrossDays) {
  Scale scale;
  scale.popular_viewers = 50;
  scale.minutes = 3;
  scale.seed = 4;
  auto merged = run_days(scale, /*popular=*/true, {core::tele_probe()},
                         /*days=*/2);
  ASSERT_EQ(merged.probes.size(), 1u);

  // The merged analysis covers both days: it has at least as many matched
  // transmissions as a single day.
  auto single = core::run_experiment(popular_config(scale, {core::tele_probe()}));
  EXPECT_GT(merged.probes[0].analysis.data_transmissions.total(),
            single.probes[0].analysis.data_transmissions.total());
  EXPECT_GT(merged.traffic.total(), single.traffic.total());
}

TEST(BenchBannerTest, MentionsScale) {
  Scale scale;
  std::ostringstream os;
  print_banner(os, "test banner", scale);
  EXPECT_NE(os.str().find("test banner"), std::string::npos);
  EXPECT_NE(os.str().find("viewers=300"), std::string::npos);
}

}  // namespace
}  // namespace ppsim::bench
