#include "core/cli.h"

#include <gtest/gtest.h>

#include <vector>

namespace ppsim::core {
namespace {

CliParseResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"ppsim"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParseTest, Defaults) {
  auto r = parse({});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_EQ(r.options.channel, "popular");
  EXPECT_EQ(r.options.minutes, 10);
  EXPECT_EQ(r.options.probes, std::vector<std::string>{"tele"});
  EXPECT_EQ(r.options.strategy, "pplive");
  EXPECT_FALSE(r.options.smart_trackers);
  EXPECT_EQ(r.options.reports, std::vector<std::string>{"data"});
}

TEST(CliParseTest, AllFlags) {
  auto r = parse({"--channel", "unpopular", "--viewers", "120", "--minutes",
                  "30", "--seed", "99", "--probe", "mason", "--probe", "cnc",
                  "--strategy", "isp-biased", "--smart-trackers", "--report",
                  "all", "--dump-trace", "/tmp/x"});
  ASSERT_FALSE(r.error.has_value()) << *r.error;
  EXPECT_EQ(r.options.channel, "unpopular");
  EXPECT_EQ(r.options.viewers, 120);
  EXPECT_EQ(r.options.minutes, 30);
  EXPECT_EQ(r.options.seed, 99u);
  EXPECT_EQ(r.options.probes,
            (std::vector<std::string>{"mason", "cnc"}));
  EXPECT_EQ(r.options.strategy, "isp-biased");
  EXPECT_TRUE(r.options.smart_trackers);
  EXPECT_EQ(r.options.reports, std::vector<std::string>{"all"});
  EXPECT_EQ(r.options.dump_trace, "/tmp/x");
}

TEST(CliParseTest, RepeatedProbesReplaceDefault) {
  auto r = parse({"--probe", "cer"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_EQ(r.options.probes, std::vector<std::string>{"cer"});
}

TEST(CliParseTest, Help) {
  auto r = parse({"--help"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.options.help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(CliParseTest, UnknownOption) {
  auto r = parse({"--bogus"});
  ASSERT_TRUE(r.error.has_value());
  EXPECT_NE(r.error->find("--bogus"), std::string::npos);
}

TEST(CliParseTest, MissingValue) {
  EXPECT_TRUE(parse({"--viewers"}).error.has_value());
  EXPECT_TRUE(parse({"--probe"}).error.has_value());
}

TEST(CliParseTest, RejectsBadValues) {
  EXPECT_TRUE(parse({"--channel", "mid"}).error.has_value());
  EXPECT_TRUE(parse({"--probe", "mars"}).error.has_value());
  EXPECT_TRUE(parse({"--strategy", "magic"}).error.has_value());
  EXPECT_TRUE(parse({"--report", "everything"}).error.has_value());
  EXPECT_TRUE(parse({"--viewers", "-5"}).error.has_value());
  EXPECT_TRUE(parse({"--minutes", "0"}).error.has_value());

  // A number must be the whole token and fit the flag's type; the error
  // names the flag.
  const auto rejects = [](std::initializer_list<const char*> args,
                          const char* flag) {
    const auto r = parse(args);
    return r.error.has_value() && r.error->find(flag) != std::string::npos;
  };
  EXPECT_TRUE(rejects({"--viewers", "12x"}, "--viewers"));
  EXPECT_TRUE(rejects({"--viewers", "99999999999"}, "--viewers"));
  EXPECT_TRUE(rejects({"--viewers", ""}, "--viewers"));
  EXPECT_TRUE(rejects({"--minutes", "1.9"}, "--minutes"));
  EXPECT_TRUE(rejects({"--sample-period", "15s", "--samples-out", "/tmp/s"},
                      "--sample-period"));
  EXPECT_TRUE(rejects({"--progress=6o"}, "--progress"));
  EXPECT_TRUE(rejects({"--seed", "abc"}, "--seed"));
  EXPECT_TRUE(rejects({"--seed", "18446744073709551617"}, "--seed"));
  EXPECT_TRUE(rejects({"--seed", "-1"}, "--seed"));
  EXPECT_TRUE(rejects({"--fault-seed", "3x", "--fault-plan", "/tmp/plan"},
                      "--fault-seed"));
  const auto max_seed = parse({"--seed", "18446744073709551615"});
  ASSERT_FALSE(max_seed.error.has_value()) << *max_seed.error;
  EXPECT_EQ(max_seed.options.seed, 18446744073709551615u);
}

TEST(CliParseTest, HealthAndPostmortemFlags) {
  auto r = parse({"--health-rules", "default", "--postmortem-dir", "/tmp/pm",
                  "--bench-json", "/tmp/b.json"});
  ASSERT_FALSE(r.error.has_value()) << *r.error;
  EXPECT_EQ(r.options.health_rules, "default");
  EXPECT_EQ(r.options.postmortem_dir, "/tmp/pm");
  EXPECT_EQ(r.options.bench_json, "/tmp/b.json");
}

TEST(CliParseTest, HealthAndPostmortemFlagsNeedValues) {
  EXPECT_TRUE(parse({"--health-rules"}).error.has_value());
  EXPECT_TRUE(parse({"--postmortem-dir"}).error.has_value());
  EXPECT_TRUE(parse({"--bench-json"}).error.has_value());
}

TEST(CliParseTest, PostmortemDirRequiresTriggerSource) {
  // A recorder with nothing that can trigger it would never dump.
  auto r = parse({"--postmortem-dir", "/tmp/pm"});
  ASSERT_TRUE(r.error.has_value());
  EXPECT_NE(r.error->find("--postmortem-dir"), std::string::npos);
  EXPECT_FALSE(
      parse({"--postmortem-dir", "/tmp/pm", "--health-rules", "default"})
          .error.has_value());
  EXPECT_FALSE(
      parse({"--postmortem-dir", "/tmp/pm", "--fault-plan", "/tmp/plan"})
          .error.has_value());
}

TEST(CliBuildTest, DefaultHealthRulesResolve) {
  auto r = parse({"--health-rules", "default"});
  ASSERT_FALSE(r.error.has_value());
  auto built = build_config(r.options);
  ASSERT_FALSE(built.error.has_value());
  EXPECT_EQ(built.health_rules.rules.size(),
            obs::default_health_rules().rules.size());
}

TEST(CliBuildTest, MissingHealthRulesFileIsAnError) {
  auto r = parse({"--health-rules", "/nonexistent/rules.txt"});
  ASSERT_FALSE(r.error.has_value());
  auto built = build_config(r.options);
  ASSERT_TRUE(built.error.has_value());
  EXPECT_NE(built.error->find("health rules"), std::string::npos);
}

TEST(CliBuildTest, BuildsExperimentConfig) {
  auto r = parse({"--channel", "unpopular", "--viewers", "70", "--minutes",
                  "7", "--seed", "5", "--probe", "mason", "--strategy",
                  "tracker-only", "--smart-trackers"});
  ASSERT_FALSE(r.error.has_value());
  auto built = build_config(r.options);
  ASSERT_FALSE(built.error.has_value());
  EXPECT_EQ(built.config.scenario.viewers, 70);
  EXPECT_EQ(built.config.scenario.duration, sim::Time::minutes(7));
  EXPECT_EQ(built.config.scenario.seed, 5u);
  ASSERT_EQ(built.config.probes.size(), 1u);
  EXPECT_EQ(built.config.probes[0].isp, net::IspCategory::kForeign);
  EXPECT_EQ(built.config.strategy, baseline::Strategy::kTrackerOnly);
  EXPECT_TRUE(built.config.locality_aware_trackers);
  EXPECT_FALSE(built.config.keep_traces);
}

TEST(CliBuildTest, DumpTraceEnablesKeepTraces) {
  auto r = parse({"--dump-trace", "/tmp/t"});
  ASSERT_FALSE(r.error.has_value());
  auto built = build_config(r.options);
  ASSERT_FALSE(built.error.has_value());
  EXPECT_TRUE(built.config.keep_traces);
}

TEST(CliBuildTest, DefaultViewersComeFromScenario) {
  auto r = parse({"--channel", "popular"});
  auto built = build_config(r.options);
  ASSERT_FALSE(built.error.has_value());
  EXPECT_EQ(built.config.scenario.viewers,
            workload::popular_channel().viewers);
}

}  // namespace
}  // namespace ppsim::core
