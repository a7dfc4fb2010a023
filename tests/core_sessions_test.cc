#include <gtest/gtest.h>

#include "analysis/stats.h"

#include <algorithm>
#include "core/experiment.h"
#include "workload/scenario.h"

namespace ppsim::core {
namespace {

ExperimentConfig churny_config() {
  ExperimentConfig config;
  config.scenario = workload::popular_channel();
  config.scenario.viewers = 60;
  config.scenario.duration = sim::Time::minutes(8);
  config.scenario.mean_session = sim::Time::minutes(3);  // fast churn
  config.scenario.seed = 17;
  config.probes = {tele_probe()};
  return config;
}

TEST(SessionLogTest, OneRecordPerViewer) {
  auto result = run_experiment(churny_config());
  // Initial audience + churn replacements; probes excluded.
  EXPECT_EQ(result.sessions.size(), result.swarm.peers_spawned -
                                        /*probe count*/ 1);
  EXPECT_GT(result.sessions.size(), 60u);
  for (const auto& s : result.sessions)
    EXPECT_EQ(s.channel, workload::popular_channel().channel.id);
}

TEST(SessionLogTest, CompletedSessionsHaveSaneDurations) {
  auto config = churny_config();
  auto result = run_experiment(config);
  std::uint64_t completed = 0;
  for (const auto& s : result.sessions) {
    EXPECT_GE(s.left, s.joined);
    EXPECT_LE(s.left, config.scenario.duration);
    if (s.completed) {
      ++completed;
      EXPECT_GE(s.duration_seconds(), 10.0);  // clamp floor in the runner
    }
  }
  EXPECT_EQ(completed, result.swarm.departures);
  EXPECT_GT(completed, 10u);  // with 3-minute sessions over 8 minutes
}

TEST(SessionLogTest, CategoriesFollowMix) {
  auto result = run_experiment(churny_config());
  std::uint64_t tele = 0;
  for (const auto& s : result.sessions)
    if (s.category == net::IspCategory::kTele) ++tele;
  const double share =
      static_cast<double>(tele) / static_cast<double>(result.sessions.size());
  EXPECT_GT(share, 0.35);  // mix says 0.56; tolerate small-sample noise
  EXPECT_LT(share, 0.75);
}

TEST(SessionLogTest, MostViewersDownloadData) {
  auto result = run_experiment(churny_config());
  std::uint64_t with_data = 0;
  for (const auto& s : result.sessions)
    if (s.bytes_downloaded > 0) ++with_data;
  EXPECT_GT(static_cast<double>(with_data) /
                static_cast<double>(result.sessions.size()),
            0.85);
}

TEST(SessionLogTest, NatFlagRecorded) {
  auto result = run_experiment(churny_config());
  std::uint64_t nated = 0;
  for (const auto& s : result.sessions)
    if (s.behind_nat) ++nated;
  // ~65% of ADSL viewers; the audience is mostly ADSL.
  const double share =
      static_cast<double>(nated) / static_cast<double>(result.sessions.size());
  EXPECT_GT(share, 0.3);
  EXPECT_LT(share, 0.85);
}

TEST(SessionLogTest, DurationsAreHeavyTailed) {
  // The runner draws Weibull(k=0.6) sessions; completed-session durations
  // (censored at the run end) should fit a Weibull with shape < 1 —
  // the heavy-tailed zapping behaviour the workload model encodes.
  auto config = churny_config();
  config.scenario.viewers = 150;
  auto result = run_experiment(config);
  std::vector<double> durations;
  for (const auto& s : result.sessions)
    if (s.completed) durations.push_back(s.duration_seconds());
  ASSERT_GT(durations.size(), 60u);
  // Clamping and right-censoring make parametric recovery unreliable, so
  // test the tail property directly: for heavy-tailed sessions the mean
  // far exceeds the median (an exponential would give mean/median = 1.44;
  // Weibull k=0.6 gives ~2.8, and censoring only pulls the ratio down).
  const double ratio = analysis::mean(durations) /
                       std::max(1.0, analysis::median(durations));
  EXPECT_GT(ratio, 1.5);
}

}  // namespace
}  // namespace ppsim::core
