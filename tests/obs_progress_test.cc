#include "obs/progress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/time.h"

namespace ppsim::obs {
namespace {

ProgressMeter::State state_at(double t) {
  ProgressMeter::State s;
  s.now = sim::Time::seconds(t);
  s.events_executed = 804905;
  s.peers_alive = 121;
  s.queue_depth = 5417;
  s.rss_bytes = 512u * 1024 * 1024 + 314573;  // ~512.3MB
  return s;
}

TEST(ProgressMeter, FormatsWallFreeLineWithDashes) {
  // No wall time in the state: wall, rate, and ETA columns must render as
  // "-" rather than inventing a clock.
  ProgressMeter meter({.out = nullptr, .total = sim::Time::seconds(360)});
  EXPECT_EQ(meter.format_line(state_at(120)),
            "[progress] t=120.0s/360s (33.3%) wall=- events=804905 (-/s) "
            "peers=121 queue=5417 rss=512.3MB eta=-");
}

TEST(ProgressMeter, OmitsPercentWithoutTotalAndDashesZeroRss) {
  ProgressMeter meter({});
  auto s = state_at(42);
  s.rss_bytes = 0;
  EXPECT_EQ(meter.format_line(s),
            "[progress] t=42.0s wall=- events=804905 (-/s) "
            "peers=121 queue=5417 rss=- eta=-");
}

TEST(ProgressMeter, TickWritesOneLinePerCallAndCounts) {
  std::ostringstream err;
  ProgressMeter meter({.out = &err, .total = sim::Time::seconds(60)});
  meter.tick(state_at(30));
  meter.tick(state_at(60));
  EXPECT_EQ(meter.lines_written(), 2u);
  const std::string out = err.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("[progress] t=30.0s/60s (50.0%)"), std::string::npos);
  EXPECT_NE(out.find("[progress] t=60.0s/60s (100.0%)"), std::string::npos);
}

TEST(ProgressMeter, EtaFollowsTheLatestInterval) {
  // Per-event cost grows as the swarm fills: the second interval runs
  // three times slower than the first, and the ETA must follow it rather
  // than the cumulative ratio (which would say 16.0s).
  std::ostringstream err;
  ProgressMeter meter({.out = &err, .total = sim::Time::seconds(360)});
  auto first = state_at(60);
  first.wall_seconds = 2.0;
  meter.tick(first);  // 2 s per 60 sim-s over 300 sim-s left
  auto second = state_at(120);
  second.wall_seconds = 8.0;
  meter.tick(second);  // 6 s per 60 sim-s over 240 sim-s left
  std::istringstream lines(err.str());
  std::string line1, line2;
  ASSERT_TRUE(std::getline(lines, line1));
  ASSERT_TRUE(std::getline(lines, line2));
  EXPECT_EQ(line1,
            "[progress] t=60.0s/360s (16.7%) wall=2.0s events=804905 "
            "(402.5k/s) peers=121 queue=5417 rss=512.3MB eta=10.0s");
  EXPECT_TRUE(line2.ends_with(" rss=512.3MB eta=24.0s")) << line2;
  EXPECT_NE(line2.find(" wall=8.0s "), std::string::npos) << line2;
}

TEST(ProgressMeter, NullStreamTickIsANoOp) {
  ProgressMeter meter({});
  meter.tick(state_at(1));
  EXPECT_EQ(meter.lines_written(), 0u);
}

}  // namespace
}  // namespace ppsim::obs
