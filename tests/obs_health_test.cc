#include "obs/health.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppsim::obs {
namespace {

HealthRuleSet one_rule(HealthRule rule) {
  HealthRuleSet set;
  set.rules.push_back(std::move(rule));
  return set;
}

HealthRule continuity_rule() {
  HealthRule rule;
  rule.kind = HealthRuleKind::kContinuityFloor;
  rule.warn = 0.9;
  rule.critical = 0.7;
  rule.label = "cont";
  return rule;
}

HealthInput healthy_at(double t_seconds) {
  HealthInput input;
  input.t = sim::Time::from_seconds(t_seconds);
  input.avg_continuity = 0.99;
  input.same_isp_share_interval = 0.8;
  input.interval_bytes = 1 << 20;
  input.alive_peers = 50;
  return input;
}

TEST(HealthRules, ParsesEveryKindAndRoundTrips) {
  std::istringstream in(
      "# comment\n"
      "rule kind=continuity_floor warn=0.9 critical=0.75 after=45 "
      "label=continuity\n"
      "rule kind=peer_isolation warn=3 critical=8\n"
      "rule kind=isp_share_drift warn=0.35 critical=0.6 trailing=4\n"
      "rule kind=startup_delay_slo warn=3 critical=10 slo_s=30\n"
      "rule kind=queue_depth_ceiling warn=20000 critical=50000\n");
  auto parsed = parse_health_rules(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.rules.rules.size(), 5u);
  EXPECT_EQ(parsed.rules.rules[0].kind, HealthRuleKind::kContinuityFloor);
  EXPECT_EQ(parsed.rules.rules[0].label, "continuity");
  EXPECT_EQ(parsed.rules.rules[0].after, sim::Time::seconds(45));
  EXPECT_EQ(parsed.rules.rules[2].trailing, 4);
  EXPECT_DOUBLE_EQ(parsed.rules.rules[3].slo_s, 30.0);

  std::ostringstream out;
  write_health_rules(out, parsed.rules);
  std::istringstream again(out.str());
  auto reparsed = parse_health_rules(again);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  ASSERT_EQ(reparsed.rules.rules.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(reparsed.rules.rules[i].kind, parsed.rules.rules[i].kind);
    EXPECT_DOUBLE_EQ(reparsed.rules.rules[i].warn, parsed.rules.rules[i].warn);
    EXPECT_DOUBLE_EQ(reparsed.rules.rules[i].critical,
                     parsed.rules.rules[i].critical);
  }
}

TEST(HealthRules, RejectsBadInput) {
  auto expect_error = [](const char* text, const char* what) {
    std::istringstream in(text);
    auto parsed = parse_health_rules(in);
    EXPECT_FALSE(parsed.ok()) << what;
    EXPECT_TRUE(parsed.rules.empty()) << "rules must clear on error";
  };
  expect_error("rule warn=1 critical=2\n", "missing kind");
  expect_error("rule kind=bogus warn=1 critical=2\n", "unknown kind");
  expect_error("rule kind=peer_isolation warn=3\n", "missing critical");
  expect_error("rule kind=continuity_floor warn=0.7 critical=0.9\n",
               "floor ordering: critical must be <= warn");
  expect_error("rule kind=peer_isolation warn=8 critical=3\n",
               "ceiling ordering: critical must be >= warn");
  expect_error("rule kind=continuity_floor warn=1.5 critical=0.5\n",
               "continuity out of [0,1]");
  expect_error("rule kind=isp_share_drift warn=0.3 critical=0.6 trailing=1\n",
               "trailing window too short");
  expect_error("bogus kind=continuity_floor warn=0.9 critical=0.7\n",
               "unknown directive");
  expect_error("rule kind=peer_isolation warn=nan critical=nan\n",
               "non-finite thresholds");
  expect_error("rule kind=peer_isolation warn=3 critical=inf\n",
               "infinite threshold");
  expect_error("rule kind=peer_isolation warn=3 critical=8 after=nan\n",
               "non-finite after");
  expect_error("rule kind=peer_isolation warn=3 critical=8 after=1e300\n",
               "after beyond sim::Time");
  expect_error("rule kind=peer_isolation warn=3 critical=8\n"
               "rule kind=bogus warn=1 critical=2\n",
               "error on a later line");
}

TEST(HealthRules, DefaultRulesAreValid) {
  const auto rules = default_health_rules();
  EXPECT_EQ(rules.rules.size(), 5u);
  EXPECT_TRUE(validate(rules).empty()) << validate(rules);
}

TEST(HealthMonitor, StaysOkOnHealthyInput) {
  HealthMonitor monitor(default_health_rules());
  for (int i = 1; i <= 20; ++i) monitor.evaluate(healthy_at(10.0 * i));
  const auto summary = monitor.summary();
  EXPECT_EQ(summary.worst, HealthState::kOk);
  EXPECT_FALSE(summary.ever_tripped());
  // The queue-depth rule has no warm-up, so it judged every input.
  EXPECT_EQ(summary.rules[4].second.evaluations, 20u);
}

TEST(HealthMonitor, ContinuityFloorTripsAndClears) {
  std::ostringstream trace_out;
  NdjsonTraceSink trace(trace_out);
  MetricsRegistry metrics;
  HealthMonitor monitor(one_rule(continuity_rule()), &trace);

  auto dip = healthy_at(10);
  monitor.evaluate(dip);  // ok
  dip.t = sim::Time::seconds(20);
  dip.avg_continuity = 0.85;  // below warn
  monitor.evaluate(dip);
  dip.t = sim::Time::seconds(30);
  dip.avg_continuity = 0.60;  // below critical
  monitor.evaluate(dip);
  dip.t = sim::Time::seconds(40);
  dip.avg_continuity = 0.95;  // recovered
  monitor.evaluate(dip);

  const auto summary = monitor.summary();
  ASSERT_EQ(summary.rules.size(), 1u);
  const auto& status = summary.rules[0].second;
  EXPECT_EQ(summary.worst, HealthState::kCritical);
  EXPECT_EQ(status.state, HealthState::kOk);
  EXPECT_EQ(status.worst, HealthState::kCritical);
  EXPECT_EQ(status.trips, 1u);
  EXPECT_EQ(status.warns, 1u);
  EXPECT_EQ(status.criticals, 1u);
  EXPECT_EQ(status.clears, 1u);
  EXPECT_EQ(status.first_trip, sim::Time::seconds(20));
  EXPECT_DOUBLE_EQ(status.worst_value, 0.60);
  EXPECT_DOUBLE_EQ(status.last_value, 0.95);

  // One trace row per transition, parseable by the offline half.
  std::istringstream trace_in(trace_out.str());
  const auto transitions = read_health_events_ndjson(trace_in);
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].to, HealthState::kWarn);
  EXPECT_EQ(transitions[1].to, HealthState::kCritical);
  EXPECT_EQ(transitions[2].to, HealthState::kOk);
  EXPECT_EQ(transitions[1].label, "cont");

  monitor.export_metrics(metrics);
  EXPECT_EQ(metrics.find_counter("health_trips", {{"rule", "cont"}})->value(),
            1u);
  EXPECT_EQ(metrics.find_counter("health_warns", {{"rule", "cont"}})->value(),
            1u);
  EXPECT_EQ(
      metrics.find_counter("health_criticals", {{"rule", "cont"}})->value(),
      1u);
  EXPECT_EQ(metrics.find_counter("health_clears", {{"rule", "cont"}})->value(),
            1u);
}

TEST(HealthMonitor, ExportSumsSharedLabelsAndSkipsZeroCounts) {
  // Two rules share a label; a third never leaves ok.
  HealthRuleSet rules;
  rules.rules.push_back(continuity_rule());
  HealthRule queue;
  queue.kind = HealthRuleKind::kQueueDepthCeiling;
  queue.warn = 100;
  queue.critical = 200;
  queue.label = "cont";
  rules.rules.push_back(queue);
  HealthRule isolation;
  isolation.kind = HealthRuleKind::kPeerIsolation;
  isolation.warn = 3;
  isolation.critical = 8;
  rules.rules.push_back(isolation);
  HealthMonitor monitor(std::move(rules));

  MetricsRegistry metrics;
  monitor.export_metrics(metrics);
  EXPECT_EQ(metrics.size(), 0u);

  auto input = healthy_at(10);
  input.avg_continuity = 0.85;  // continuity warn
  input.queue_depth = 150;      // queue warn
  monitor.evaluate(input);
  monitor.export_metrics(metrics);
  EXPECT_EQ(metrics.find_counter("health_trips", {{"rule", "cont"}})->value(),
            2u);
  EXPECT_EQ(metrics.find_counter("health_warns", {{"rule", "cont"}})->value(),
            2u);
  // No critical or clear yet, and the isolation rule never tripped.
  EXPECT_EQ(metrics.find_counter("health_criticals", {{"rule", "cont"}}),
            nullptr);
  EXPECT_EQ(metrics.find_counter("health_clears", {{"rule", "cont"}}),
            nullptr);
  EXPECT_EQ(metrics.size(), 2u);
}

TEST(HealthMonitor, AfterSuppressesWarmup) {
  auto rule = continuity_rule();
  rule.after = sim::Time::seconds(45);
  HealthMonitor monitor(one_rule(rule));
  auto input = healthy_at(10);
  input.avg_continuity = 0.0;  // would be critical, but inside warm-up
  monitor.evaluate(input);
  EXPECT_FALSE(monitor.summary().ever_tripped());
  input.t = sim::Time::seconds(50);
  monitor.evaluate(input);
  EXPECT_TRUE(monitor.summary().ever_tripped());
}

TEST(HealthMonitor, DriftComparesAgainstTrailingWindow) {
  HealthRule rule;
  rule.kind = HealthRuleKind::kIspShareDrift;
  rule.warn = 0.3;
  rule.critical = 0.6;
  rule.trailing = 3;
  HealthMonitor monitor(one_rule(rule));

  // Fill the trailing window with a steady 0.8 share.
  for (int i = 1; i <= 3; ++i) {
    auto input = healthy_at(10.0 * i);
    monitor.evaluate(input);
  }
  EXPECT_FALSE(monitor.summary().ever_tripped());

  // Collapse to 0.2: drift = (0.8 - 0.2) / 0.8 = 0.75 > critical.
  auto input = healthy_at(40);
  input.same_isp_share_interval = 0.2;
  monitor.evaluate(input);
  const auto summary = monitor.summary();
  EXPECT_EQ(summary.worst, HealthState::kCritical);

  // Idle intervals abstain rather than reading a meaningless share.
  auto idle = healthy_at(50);
  idle.same_isp_share_interval = 0.0;
  idle.interval_bytes = 0;
  monitor.evaluate(idle);
  EXPECT_EQ(monitor.summary().rules[0].second.state, HealthState::kCritical);
}

TEST(HealthMonitor, StartupSloCountsLateViewers) {
  HealthRule rule;
  rule.kind = HealthRuleKind::kStartupDelaySlo;
  rule.warn = 2;
  rule.critical = 4;
  rule.slo_s = 30.0;
  HealthMonitor monitor(one_rule(rule));
  auto input = healthy_at(60);
  input.startup_waits_s = {5.0, 31.0, 40.0, 29.9};  // two over budget
  monitor.evaluate(input);
  const auto summary = monitor.summary();
  const auto& status = summary.rules[0].second;
  EXPECT_EQ(status.state, HealthState::kWarn);
  EXPECT_DOUBLE_EQ(status.last_value, 2.0);
}

TEST(HealthMonitor, CriticalHookFiresOncePerEntry) {
  auto rule = continuity_rule();
  HealthMonitor monitor(one_rule(rule));
  int hooks = 0;
  monitor.set_critical_hook(
      [&](sim::Time, const HealthRule&, double) { ++hooks; });
  auto input = healthy_at(10);
  input.avg_continuity = 0.5;
  monitor.evaluate(input);  // ok -> critical: hook
  input.t = sim::Time::seconds(20);
  monitor.evaluate(input);  // stays critical: no hook
  input.t = sim::Time::seconds(30);
  input.avg_continuity = 0.99;
  monitor.evaluate(input);  // clears
  input.t = sim::Time::seconds(40);
  input.avg_continuity = 0.5;
  monitor.evaluate(input);  // re-enters: hook
  EXPECT_EQ(hooks, 2);
}

TEST(HealthTimeline, DigestsTransitionStream) {
  std::ostringstream trace_out;
  NdjsonTraceSink trace(trace_out);
  HealthRuleSet rules;
  rules.rules.push_back(continuity_rule());
  HealthRule queue;
  queue.kind = HealthRuleKind::kQueueDepthCeiling;
  queue.warn = 100;
  queue.critical = 200;
  rules.rules.push_back(queue);
  HealthMonitor monitor(std::move(rules), &trace);

  auto input = healthy_at(10);
  input.queue_depth = 150;  // queue warn
  input.avg_continuity = 0.5;  // continuity critical
  monitor.evaluate(input);
  input.t = sim::Time::seconds(20);
  input.queue_depth = 10;
  input.avg_continuity = 0.99;
  monitor.evaluate(input);  // both clear

  std::istringstream trace_in(trace_out.str());
  const auto rows = analyze_health_timeline(read_health_events_ndjson(trace_in));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rule, 0u);
  EXPECT_EQ(rows[0].kind, HealthRuleKind::kContinuityFloor);
  EXPECT_EQ(rows[0].trips, 1u);
  EXPECT_EQ(rows[0].criticals, 1u);
  EXPECT_EQ(rows[0].clears, 1u);
  EXPECT_EQ(rows[0].first_trip, sim::Time::seconds(10));
  EXPECT_EQ(rows[0].last_clear, sim::Time::seconds(20));
  EXPECT_EQ(rows[0].final_state, HealthState::kOk);
  ASSERT_TRUE(rows[0].has_worst);
  EXPECT_DOUBLE_EQ(rows[0].worst_value, 0.5);
  EXPECT_EQ(rows[1].kind, HealthRuleKind::kQueueDepthCeiling);
  EXPECT_EQ(rows[1].criticals, 0u);

  std::ostringstream table;
  print_health_timeline(table, rows);
  EXPECT_NE(table.str().find("continuity_floor"), std::string::npos);
  EXPECT_NE(table.str().find("queue_depth_ceiling"), std::string::npos);
}

TEST(HealthTimeline, LabelWithQuoteAndBackslashReadsBackInFull) {
  std::ostringstream trace_out;
  NdjsonTraceSink trace(trace_out);
  HealthRule rule = continuity_rule();
  rule.label = "cont\"x\\y";
  HealthMonitor monitor(one_rule(rule), &trace);
  auto input = healthy_at(10);
  input.avg_continuity = 0.5;
  monitor.evaluate(input);

  std::istringstream trace_in(trace_out.str());
  const auto rows = analyze_health_timeline(read_health_events_ndjson(trace_in));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "cont\"x\\y");
  std::ostringstream table;
  print_health_timeline(table, rows);
  EXPECT_NE(table.str().find("cont\"x\\y"), std::string::npos) << table.str();
}

TEST(HealthTimeline, ReaderSkipsForeignLinesAndCountsMalformed) {
  std::istringstream in(
      "{\"t\":1.000000,\"ev\":\"peer_join\",\"peer\":1}\n"
      "{\"t\":2.000000,\"ev\":\"health.warn\",\"rule\":0,"
      "\"kind\":\"continuity_floor\",\"label\":\"c\",\"from\":\"ok\","
      "\"to\":\"warn\",\"value\":0.85,\"warn\":0.9,\"critical\":0.7}\n"
      "{\"t\":3.000000,\"ev\":\"health.clear\"}\n"  // malformed: no rule
      "not json at all\n");
  std::size_t dropped = 0;
  const auto transitions = read_health_events_ndjson(in, &dropped);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].to, HealthState::kWarn);
  EXPECT_EQ(dropped, 1u);
}

}  // namespace
}  // namespace ppsim::obs
