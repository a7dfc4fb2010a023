// FaultDriver unit tests against a mock FaultHost: windows apply and
// revert on the simulator clock, victim sampling is deterministic in the
// driver seed, and boundaries are observable through traces and the
// driver's metrics export.

#include "faults/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ppsim::faults {
namespace {

class MockHost : public FaultHost {
 public:
  void set_tracker_dark(int group, bool dark) override {
    tracker_calls.push_back({group, dark});
  }
  void set_bootstrap_dark(bool dark) override {
    bootstrap_calls.push_back(dark);
  }
  std::vector<net::IpAddress> alive_audience_ips() const override {
    return alive;
  }
  void crash_peer(net::IpAddress ip) override { crashed.push_back(ip); }

  std::vector<net::IpAddress> alive;
  std::vector<std::pair<int, bool>> tracker_calls;
  std::vector<bool> bootstrap_calls;
  std::vector<net::IpAddress> crashed;
};

FaultWindow window(FaultKind kind, int start_s, int end_s) {
  FaultWindow w;
  w.kind = kind;
  w.start = sim::Time::seconds(start_s);
  w.end = sim::Time::seconds(end_s);
  return w;
}

TEST(FaultDriverTest, TrackerOutageAppliesAndReverts) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  FaultPlan plan;
  auto w = window(FaultKind::kTrackerOutage, 10, 20);
  w.tracker_group = 2;
  plan.windows.push_back(w);

  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();
  simulator.run_until(sim::Time::seconds(15));
  ASSERT_EQ(host.tracker_calls.size(), 1u);
  EXPECT_EQ(host.tracker_calls[0], (std::pair<int, bool>{2, true}));
  EXPECT_EQ(driver.windows_applied(), 1u);
  EXPECT_EQ(driver.windows_reverted(), 0u);

  simulator.run_until(sim::Time::seconds(30));
  ASSERT_EQ(host.tracker_calls.size(), 2u);
  EXPECT_EQ(host.tracker_calls[1], (std::pair<int, bool>{2, false}));
  EXPECT_EQ(driver.windows_reverted(), 1u);
}

TEST(FaultDriverTest, BootstrapOutage) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  FaultPlan plan;
  plan.windows.push_back(window(FaultKind::kBootstrapOutage, 5, 8));
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();
  simulator.run();
  ASSERT_EQ(host.bootstrap_calls.size(), 2u);
  EXPECT_TRUE(host.bootstrap_calls[0]);
  EXPECT_FALSE(host.bootstrap_calls[1]);
}

TEST(FaultDriverTest, LinkDegradeMutatesOverlayForWindowOnly) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  FaultPlan plan;
  auto w = window(FaultKind::kLinkDegrade, 10, 20);
  w.category_a = net::IspCategory::kTele;
  w.category_b = net::IspCategory::kCnc;
  w.loss = 0.4;
  w.added_rtt = sim::Time::millis(100);
  plan.windows.push_back(w);
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();

  simulator.run_until(sim::Time::seconds(15));
  ASSERT_TRUE(overlay.active());
  const auto* d = overlay.pair_degradation(net::IspCategory::kTele,
                                           net::IspCategory::kCnc);
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->extra_loss, 0.4);
  // The plan speaks round-trip; each direction carries half.
  EXPECT_EQ(d->extra_one_way, sim::Time::millis(50));

  simulator.run_until(sim::Time::seconds(25));
  EXPECT_FALSE(overlay.active());
}

TEST(FaultDriverTest, BlackoutBlocksCategoryForWindowOnly) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  FaultPlan plan;
  auto w = window(FaultKind::kBlackout, 10, 20);
  w.category_a = net::IspCategory::kCer;
  plan.windows.push_back(w);
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();
  simulator.run_until(sim::Time::seconds(15));
  EXPECT_TRUE(overlay.category_blocked(net::IspCategory::kCer));
  simulator.run_until(sim::Time::seconds(25));
  EXPECT_FALSE(overlay.category_blocked(net::IspCategory::kCer));
}

TEST(FaultDriverTest, ChurnBurstCrashesSampledFraction) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  for (std::uint32_t i = 1; i <= 20; ++i) host.alive.push_back(net::IpAddress(i));
  FaultPlan plan;
  auto w = window(FaultKind::kChurnBurst, 10, 10);
  w.fraction = 0.25;
  plan.windows.push_back(w);
  FaultDriver driver(simulator, overlay, host, plan, /*seed=*/7);
  driver.arm();
  simulator.run();

  ASSERT_EQ(host.crashed.size(), 5u);  // ceil(0.25 * 20)
  EXPECT_EQ(driver.peers_crashed(), 5u);
  // Victims arrive in ascending-IP order (deterministic event sequence).
  EXPECT_TRUE(std::is_sorted(host.crashed.begin(), host.crashed.end()));
  // Instantaneous windows never revert.
  EXPECT_EQ(driver.windows_applied(), 1u);
  EXPECT_EQ(driver.windows_reverted(), 0u);
}

TEST(FaultDriverTest, VictimSamplingDeterministicInSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator simulator;
    net::ImpairmentOverlay overlay;
    MockHost host;
    for (std::uint32_t i = 1; i <= 50; ++i)
      host.alive.push_back(net::IpAddress(i));
    FaultPlan plan;
    auto w = window(FaultKind::kChurnBurst, 1, 1);
    w.fraction = 0.2;
    plan.windows.push_back(w);
    FaultDriver driver(simulator, overlay, host, plan, seed);
    driver.arm();
    simulator.run();
    return host.crashed;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(FaultDriverTest, BrownoutImpairsSampledUplinksForWindowOnly) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  for (std::uint32_t i = 1; i <= 10; ++i) host.alive.push_back(net::IpAddress(i));
  FaultPlan plan;
  auto w = window(FaultKind::kUplinkBrownout, 10, 20);
  w.fraction = 0.3;
  w.loss = 0.6;
  plan.windows.push_back(w);
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();

  simulator.run_until(sim::Time::seconds(15));
  ASSERT_TRUE(overlay.active());
  int impaired = 0;
  for (std::uint32_t i = 1; i <= 10; ++i)
    if (overlay.uplink_loss(net::IpAddress(i)) > 0) ++impaired;
  EXPECT_EQ(impaired, 3);  // ceil(0.3 * 10)

  simulator.run_until(sim::Time::seconds(25));
  EXPECT_FALSE(overlay.active());
  for (std::uint32_t i = 1; i <= 10; ++i)
    EXPECT_EQ(overlay.uplink_loss(net::IpAddress(i)), 0.0);
}

TEST(FaultDriverTest, OverlappingWindowsComposeAndUnwindIndependently) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  FaultPlan plan;
  auto a = window(FaultKind::kBlackout, 10, 40);
  a.category_a = net::IspCategory::kCnc;
  plan.windows.push_back(a);
  auto b = window(FaultKind::kLinkDegrade, 20, 30);
  b.loss = 0.5;
  plan.windows.push_back(b);
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();

  simulator.run_until(sim::Time::seconds(25));
  EXPECT_TRUE(overlay.category_blocked(net::IspCategory::kCnc));
  EXPECT_NE(overlay.pair_degradation(net::IspCategory::kTele,
                                     net::IspCategory::kCnc),
            nullptr);
  simulator.run_until(sim::Time::seconds(35));  // degrade lifted, blackout on
  EXPECT_TRUE(overlay.category_blocked(net::IspCategory::kCnc));
  EXPECT_TRUE(overlay.active());
  simulator.run_until(sim::Time::seconds(45));
  EXPECT_FALSE(overlay.active());
}

TEST(FaultDriverTest, EmitsTraceEventsAndMetrics) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  host.alive.push_back(net::IpAddress(1));
  FaultPlan plan;
  auto w = window(FaultKind::kTrackerOutage, 10, 20);
  w.label = "dark";
  plan.windows.push_back(w);
  auto burst = window(FaultKind::kChurnBurst, 15, 15);
  burst.fraction = 1.0;
  plan.windows.push_back(burst);

  std::ostringstream trace_text;
  obs::NdjsonTraceSink sink(trace_text);
  obs::MetricsRegistry metrics;
  simulator.set_tracing(&sink, /*causal=*/false);
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();
  // Nothing to count yet, so no series.
  driver.export_metrics(metrics);
  EXPECT_EQ(metrics.size(), 0u);
  simulator.run();
  driver.export_metrics(metrics);

  const std::string text = trace_text.str();
  EXPECT_NE(text.find("fault_begin"), std::string::npos);
  EXPECT_NE(text.find("fault_end"), std::string::npos);
  EXPECT_NE(text.find("tracker_outage"), std::string::npos);
  EXPECT_NE(text.find("churn_burst"), std::string::npos);
  EXPECT_NE(text.find("dark"), std::string::npos);

  const auto* applied = metrics.find_counter("fault_windows_applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->value(), 2u);
  const auto* reverted = metrics.find_counter("fault_windows_reverted");
  ASSERT_NE(reverted, nullptr);
  EXPECT_EQ(reverted->value(), 1u);
  const auto* crashed = metrics.find_counter("fault_peers_crashed");
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(crashed->value(), 1u);
  // A second export of the same counts changes nothing.
  driver.export_metrics(metrics);
  EXPECT_EQ(applied->value(), 2u);
}

TEST(FaultDriverTest, BurstThatCrashedNobodyStillExportsItsCounter) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;  // no alive audience
  FaultPlan plan;
  auto burst = window(FaultKind::kChurnBurst, 5, 5);
  burst.fraction = 0.5;
  plan.windows.push_back(burst);
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();
  simulator.run();

  obs::MetricsRegistry metrics;
  driver.export_metrics(metrics);
  const auto* crashed = metrics.find_counter("fault_peers_crashed");
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(crashed->value(), 0u);
  EXPECT_EQ(metrics.find_counter("fault_windows_applied")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("fault_windows_reverted"), nullptr);
}

TEST(FaultDriverTest, ArmIsIdempotent) {
  sim::Simulator simulator;
  net::ImpairmentOverlay overlay;
  MockHost host;
  FaultPlan plan;
  plan.windows.push_back(window(FaultKind::kBootstrapOutage, 1, 2));
  FaultDriver driver(simulator, overlay, host, plan);
  driver.arm();
  driver.arm();
  simulator.run();
  EXPECT_EQ(host.bootstrap_calls.size(), 2u);  // one apply + one revert
}

}  // namespace
}  // namespace ppsim::faults
