#include "obs/resource_probe.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/time.h"

namespace ppsim::obs {
namespace {

ResourceProbe::Inputs inputs_at(double t, std::uint64_t events,
                                double wall_s) {
  ResourceProbe::Inputs in;
  in.now = sim::Time::seconds(t);
  in.queue_depth = 100;
  in.event_horizon = sim::Time::seconds(5);
  in.events_executed = events;
  in.queue_bytes = 4096;
  in.live_peers = 7;
  in.live_peer_bytes = 70000;
  in.wall_seconds = wall_s;
  return in;
}

TEST(ResourceProbe, RecordsSchedulerInputsVerbatim) {
  ResourceProbe probe;
  const auto& s = probe.sample(inputs_at(10, 1000, 0));
  EXPECT_EQ(s.t.as_micros(), sim::Time::seconds(10).as_micros());
  EXPECT_EQ(s.queue_depth, 100u);
  EXPECT_DOUBLE_EQ(s.event_horizon_s, 5.0);
  EXPECT_EQ(s.events_executed, 1000u);
  EXPECT_EQ(s.queue_bytes, 4096u);
  EXPECT_EQ(s.live_peers, 7u);
  EXPECT_EQ(s.live_peer_bytes, 70000u);
  EXPECT_EQ(probe.samples().size(), 1u);
}

TEST(ResourceProbe, ThroughputIsDeltaEventsOverDeltaWall) {
  ResourceProbe probe;
  probe.sample(inputs_at(10, 1000, 1.0));
  const auto& s = probe.sample(inputs_at(20, 5000, 3.0));
  // 4000 events over 2 wall seconds.
  EXPECT_DOUBLE_EQ(s.events_per_wall_s, 2000.0);
}

TEST(ResourceProbe, ThroughputStaysZeroWithoutWallClock) {
  // No profiler attached -> wall_seconds stays 0; the probe must not
  // invent a rate (division by a zero interval).
  ResourceProbe probe;
  probe.sample(inputs_at(10, 1000, 0));
  const auto& s = probe.sample(inputs_at(20, 5000, 0));
  EXPECT_DOUBLE_EQ(s.events_per_wall_s, 0.0);
}

TEST(ResourceProbe, RingIsBoundedByRetain) {
  ResourceProbe probe(/*retain=*/3);
  for (int i = 0; i < 10; ++i)
    probe.sample(inputs_at(i, 100 * i, 0));
  EXPECT_EQ(probe.samples().size(), 3u);
  // The three newest of the ten samples.
  EXPECT_EQ(probe.samples().front().events_executed, 700u);
  EXPECT_EQ(probe.samples().back().events_executed, 900u);
}

TEST(ResourceProbe, PublishesEveryInventoriedGauge) {
  MetricsRegistry metrics;
  ResourceProbe probe;
  probe.export_metrics(metrics);  // nothing sampled yet
  EXPECT_EQ(metrics.size(), 0u);
  probe.sample(inputs_at(10, 1000, 1.0));
  probe.export_metrics(metrics);
  for (const std::string_view name : kResourceGaugeNames)
    EXPECT_NE(metrics.find_gauge(std::string(name)), nullptr)
        << "gauge not published: " << name;
  EXPECT_EQ(metrics.size(), kResourceGaugeNames.size());
  EXPECT_DOUBLE_EQ(metrics.find_gauge("sched_queue_depth")->value(), 100.0);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("sched_event_horizon_s")->value(), 5.0);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("sched_queue_bytes")->value(), 4096.0);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("sched_events_per_wall_s")->value(),
                   1000.0);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("live_peers")->value(), 7.0);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("live_peer_bytes")->value(), 70000.0);
}

TEST(ResourceProbe, RssReadbackWorksOnLinux) {
#ifdef __linux__
  // A live process must have a nonzero resident set, peak >= current, and
  // a sample carries the process's peak so far.
  const std::uint64_t rss = ResourceProbe::current_rss_bytes();
  const std::uint64_t peak = ResourceProbe::peak_rss_bytes();
  EXPECT_GT(rss, 0u);
  EXPECT_GE(peak, rss);
  ResourceProbe probe;
  EXPECT_GE(probe.sample(inputs_at(1, 1, 0)).peak_rss_bytes, rss);
#else
  EXPECT_EQ(ResourceProbe::current_rss_bytes(), 0u);
#endif
}

}  // namespace
}  // namespace ppsim::obs
