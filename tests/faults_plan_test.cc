// FaultPlan text format: parsing, validation, round-tripping, and the
// canned demonstration schedule.

#include "faults/plan.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ppsim::faults {
namespace {

PlanParseResult parse(const std::string& text) {
  std::istringstream in(text);
  return parse_fault_plan(in);
}

TEST(FaultPlanTest, ParsesEveryKind) {
  auto result = parse(
      "# demo schedule\n"
      "window kind=tracker_outage start=120 end=240 group=0 label=tele-dark\n"
      "window kind=bootstrap_outage start=60 end=90\n"
      "window kind=link_degrade start=90 end=300 a=TELE b=CNC loss=0.25 "
      "added_rtt_ms=150\n"
      "window kind=blackout start=200 end=260 a=CNC\n"
      "window kind=churn_burst at=240 fraction=0.3\n"
      "window kind=uplink_brownout start=300 end=420 fraction=0.2 loss=0.5\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.plan.windows.size(), 6u);

  // Sorted by start time, not textual order.
  EXPECT_EQ(result.plan.windows[0].kind, FaultKind::kBootstrapOutage);
  EXPECT_EQ(result.plan.windows[1].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(result.plan.windows[2].kind, FaultKind::kTrackerOutage);

  const FaultWindow& outage = result.plan.windows[2];
  EXPECT_EQ(outage.start, sim::Time::seconds(120));
  EXPECT_EQ(outage.end, sim::Time::seconds(240));
  EXPECT_EQ(outage.tracker_group, 0);
  EXPECT_EQ(outage.label, "tele-dark");

  const FaultWindow& degrade = result.plan.windows[1];
  EXPECT_EQ(degrade.category_a, net::IspCategory::kTele);
  EXPECT_EQ(degrade.category_b, net::IspCategory::kCnc);
  EXPECT_DOUBLE_EQ(degrade.loss, 0.25);
  EXPECT_EQ(degrade.added_rtt, sim::Time::millis(150));

  // Sorted order: bootstrap(60), degrade(90), tracker(120), blackout(200),
  // churn(240), brownout(300).
  const FaultWindow& burst = result.plan.windows[4];
  EXPECT_EQ(burst.kind, FaultKind::kChurnBurst);
  EXPECT_EQ(burst.start, burst.end);
  EXPECT_DOUBLE_EQ(burst.fraction, 0.3);
}

TEST(FaultPlanTest, BlankLinesAndCommentsIgnored) {
  auto result = parse("\n  # nothing here\n\nwindow kind=blackout start=1 "
                      "end=2 a=TELE # trailing\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.plan.windows.size(), 1u);
}

TEST(FaultPlanTest, RejectsMalformedInput) {
  EXPECT_FALSE(parse("widnow kind=blackout start=1 end=2\n").ok());
  EXPECT_FALSE(parse("window kind=nope start=1 end=2\n").ok());
  EXPECT_FALSE(parse("window kind=blackout start=abc end=2\n").ok());
  EXPECT_FALSE(parse("window kind=blackout end=2\n").ok());       // no start
  EXPECT_FALSE(parse("window kind=blackout start=1\n").ok());     // no end
  EXPECT_FALSE(parse("window start=1 end=2\n").ok());             // no kind
  EXPECT_FALSE(parse("window kind=blackout start=1 end=2 x=1\n").ok());
  EXPECT_FALSE(parse("window kind=link_degrade start=1 end=2 a=MARS\n").ok());
  // Numbers must be finite, and times must fit sim::Time.
  EXPECT_FALSE(
      parse("window kind=link_degrade start=1 end=2 a=TELE b=CNC loss=nan\n")
          .ok());
  EXPECT_FALSE(parse("window kind=blackout start=nan end=30 a=TELE\n").ok());
  EXPECT_FALSE(parse("window kind=blackout start=1e300 end=2e300 a=TELE\n")
                   .ok());
  EXPECT_FALSE(parse("window kind=churn_burst at=inf fraction=0.5\n").ok());
  EXPECT_FALSE(parse("window kind=link_degrade start=1 end=2 a=TELE b=CNC "
                     "added_rtt_ms=1e300\n")
                   .ok());
  // An error on a later line drops the windows parsed before it.
  auto later = parse("window kind=blackout start=1 end=2 a=TELE\n"
                     "window kind=bogus start=3 end=4\n");
  EXPECT_FALSE(later.ok());
  EXPECT_TRUE(later.plan.empty());
  // Errors carry the line number.
  auto bad = parse("window kind=blackout start=1 end=2 a=TELE\n"
                   "window kind=blackout start=3\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("line 2"), std::string::npos) << bad.error;
}

TEST(FaultPlanTest, ValidationRules) {
  EXPECT_FALSE(parse("window kind=blackout start=5 end=2 a=TELE\n").ok());
  EXPECT_FALSE(
      parse("window kind=link_degrade start=1 end=2 loss=1.5\n").ok());
  // A degrade that degrades nothing is a plan bug.
  EXPECT_FALSE(parse("window kind=link_degrade start=1 end=2\n").ok());
  EXPECT_FALSE(parse("window kind=churn_burst at=1 fraction=0\n").ok());
  EXPECT_FALSE(parse("window kind=churn_burst at=1 fraction=2\n").ok());
  EXPECT_FALSE(
      parse("window kind=churn_burst start=1 end=2 fraction=0.5\n").ok());
  EXPECT_FALSE(
      parse("window kind=uplink_brownout start=1 end=2 fraction=0.5\n").ok());
  EXPECT_FALSE(parse("window kind=tracker_outage start=1 end=2 group=-2\n")
                   .ok());
  // A failed parse returns an empty plan, never a partial one.
  auto bad = parse("window kind=blackout start=1 end=2 a=TELE\n"
                   "window kind=blackout start=5 end=2 a=CNC\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.plan.empty());
}

TEST(FaultPlanTest, RoundTripsThroughText) {
  const FaultPlan original = tracker_blackout_throttle_plan();
  std::ostringstream os;
  write_fault_plan(os, original);
  auto reparsed = parse(os.str());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  ASSERT_EQ(reparsed.plan.windows.size(), original.windows.size());
  for (std::size_t i = 0; i < original.windows.size(); ++i) {
    const FaultWindow& a = original.windows[i];
    const FaultWindow& b = reparsed.plan.windows[i];
    EXPECT_EQ(a.kind, b.kind) << "window " << i;
    EXPECT_EQ(a.start, b.start) << "window " << i;
    EXPECT_EQ(a.end, b.end) << "window " << i;
    EXPECT_EQ(a.tracker_group, b.tracker_group) << "window " << i;
    EXPECT_EQ(a.category_a, b.category_a) << "window " << i;
    EXPECT_EQ(a.category_b, b.category_b) << "window " << i;
    EXPECT_DOUBLE_EQ(a.loss, b.loss) << "window " << i;
    EXPECT_EQ(a.added_rtt, b.added_rtt) << "window " << i;
    EXPECT_DOUBLE_EQ(a.fraction, b.fraction) << "window " << i;
    EXPECT_EQ(a.label, b.label) << "window " << i;
  }
}

TEST(FaultPlanTest, CannedPlanIsValidAndOrdered) {
  const FaultPlan plan = tracker_blackout_throttle_plan();
  EXPECT_TRUE(validate(plan).empty());
  ASSERT_EQ(plan.windows.size(), 3u);
  EXPECT_EQ(plan.windows[0].kind, FaultKind::kTrackerOutage);
  EXPECT_EQ(plan.windows[0].tracker_group, -1);
  EXPECT_EQ(plan.windows[1].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.windows[2].kind, FaultKind::kChurnBurst);
  // The throttle overlaps the outage: that is the point of the scenario.
  EXPECT_LT(plan.windows[1].start, plan.windows[0].end);
}

TEST(FaultPlanTest, KindNamesRoundTrip) {
  for (FaultKind k :
       {FaultKind::kTrackerOutage, FaultKind::kBootstrapOutage,
        FaultKind::kLinkDegrade, FaultKind::kBlackout, FaultKind::kChurnBurst,
        FaultKind::kUplinkBrownout}) {
    FaultKind parsed;
    ASSERT_TRUE(parse_fault_kind(to_string(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  FaultKind unused;
  EXPECT_FALSE(parse_fault_kind("power_failure", &unused));
}

TEST(FaultPlanTest, LoadReportsMissingFile) {
  auto result = load_fault_plan("/nonexistent/plan.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace ppsim::faults
