// End-to-end causal tracing: CLI flag plumbing, referral lineage and
// startup critical paths read from the run's span tracker, behavior
// invariance (causal tracing is passive), and spans-file determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/cli.h"
#include "core/experiment.h"
#include "obs/span_tracker.h"
#include "obs/trace.h"
#include "obs_testutil.h"
#include "workload/scenario.h"

namespace ppsim::core {
namespace {

CliParseResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"ppsim"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CausalCli, CausalTraceFlagParses) {
  auto r = parse({"--causal-trace"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.options.causal_trace);
  EXPECT_TRUE(r.options.spans_out.empty());
  EXPECT_FALSE(parse({}).options.causal_trace);
}

TEST(CausalCli, SpansOutImpliesCausalTrace) {
  auto r = parse({"--spans-out", "/tmp/spans.ndjson"});
  ASSERT_FALSE(r.error.has_value());
  EXPECT_TRUE(r.options.causal_trace);
  EXPECT_EQ(r.options.spans_out, "/tmp/spans.ndjson");
  EXPECT_TRUE(parse({"--spans-out"}).error.has_value());
}

ExperimentConfig small_config(std::uint64_t seed = 7) {
  ExperimentConfig config;
  config.scenario = workload::unpopular_channel();
  config.scenario.viewers = 25;
  config.scenario.duration = sim::Time::minutes(3);
  config.scenario.seed = seed;
  config.probes = {tele_probe()};
  return config;
}

TEST(CausalExperiment, LineageAndCriticalPathsComeFromTheTracker) {
  ExperimentConfig config = small_config();
  obs::SpanTracker spans;
  config.observability.spans = &spans;
  run_experiment(config);

  EXPECT_GT(spans.span_count(), 0u);
  const obs::LineageSummary lineage = spans.lineage();
  ASSERT_GT(lineage.total.referrals, 0u);
  // Referrals decompose exactly across introduction channels.
  std::uint64_t by_via = 0;
  for (const auto& [via, bucket] : lineage.by_via) by_via += bucket.referrals;
  EXPECT_GE(lineage.by_via.count("tracker"), 1u);
  EXPECT_EQ(by_via, lineage.total.referrals);
  std::uint64_t bucketed = 0;
  for (const auto& b : spans.referral_share_series()) bucketed += b.referrals;
  EXPECT_EQ(bucketed, lineage.total.referrals);

  // The headline acceptance: every playback-reaching peer's stage vector
  // sums exactly (in integer microseconds) to its measured startup delay.
  const std::vector<obs::CriticalPath> paths = spans.critical_paths();
  ASSERT_GT(paths.size(), 0u);
  for (const auto& p : paths) {
    sim::Time sum = sim::Time::zero();
    for (const sim::Time s : p.stages) {
      EXPECT_FALSE(s.is_negative()) << p.peer;
      sum += s;
    }
    EXPECT_EQ(sum, p.startup) << p.peer;
    EXPECT_FALSE(p.isp.empty()) << p.peer;
  }
}

TEST(CausalExperiment, CausalTracingDoesNotPerturbTheSimulation) {
  const ExperimentResult base = run_experiment(small_config());

  ExperimentConfig causal = small_config();
  obs::SpanTracker spans;
  causal.observability.spans = &spans;
  const ExperimentResult traced = run_experiment(causal);

  // Span ids are bookkeeping on existing messages; no extra sim events,
  // no behavioral drift anywhere in the ground truth.
  EXPECT_EQ(base.traffic.bytes, traced.traffic.bytes);
  EXPECT_EQ(base.swarm.events_executed, traced.swarm.events_executed);
  EXPECT_EQ(base.swarm.peers_spawned, traced.swarm.peers_spawned);
  EXPECT_EQ(base.counter_totals.bytes_downloaded,
            traced.counter_totals.bytes_downloaded);
  ASSERT_EQ(base.sessions.size(), traced.sessions.size());
  for (std::size_t i = 0; i < base.sessions.size(); ++i) {
    EXPECT_EQ(base.sessions[i].joined, traced.sessions[i].joined);
    EXPECT_EQ(base.sessions[i].left, traced.sessions[i].left);
  }
}

TEST(CausalExperiment, SpansFileIsDeterministicAcrossRuns) {
  auto run_spans = [] {
    ExperimentConfig config = small_config();
    obs::SpanTracker spans;
    config.observability.spans = &spans;
    run_experiment(config);
    std::ostringstream os;
    spans.write_ndjson(os);
    return os.str();
  };
  const std::string first = run_spans();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_spans());
}

TEST(CausalExperiment, CausalEventsAppendToTheExistingVocabulary) {
  ExperimentConfig config = small_config();
  obs::SpanTracker spans;
  obs::CountingTraceSink trace;
  config.observability.spans = &spans;
  config.observability.trace = &trace;
  run_experiment(config);

  // New milestone events appear only under causal tracing; the tee hands
  // the trace sink and the tracker the same stream.
  EXPECT_GT(trace.count("join_reply"), 0u);
  EXPECT_GT(trace.count("chunk_delivered"), 0u);
  EXPECT_GT(trace.count("playback_start"), 0u);
  EXPECT_GT(trace.count("bootstrap_serve"), 0u);
  EXPECT_EQ(trace.total(), spans.events_observed());
}

}  // namespace
}  // namespace ppsim::core
