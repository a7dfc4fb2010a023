// Regression tests for RunProfiler: a category with no timed samples must
// render placeholder quantiles ("-" in the table), never NaN/inf garbage,
// and the exported dispatch metrics carry the deterministic counts.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "sim/time.h"

namespace ppsim::obs {
namespace {

TEST(RunProfiler, ZeroSampleCategoryPrintsPlaceholderQuantiles) {
  // An untimed profiler counts the event but leaves its histogram empty.
  RunProfiler profiler(/*timed=*/false);
  profiler.on_event_begin(sim::Time::zero(), 1, "never.timed", 2);
  profiler.on_event_end(sim::Time::zero(), "never.timed");
  EXPECT_EQ(profiler.wall_seconds_total(), 0.0);

  std::ostringstream os;
  profiler.print(os);
  const std::string table = os.str();

  ASSERT_NE(table.find("never.timed"), std::string::npos);
  // The NaN quantile of an empty histogram used to fall through the
  // +inf branch and print the overflow marker.
  EXPECT_EQ(table.find(">0.1s"), std::string::npos);
  EXPECT_EQ(table.find("nan"), std::string::npos);
  EXPECT_NE(table.find("-"), std::string::npos);
}

TEST(RunProfiler, MeasuredCategoryStillReportsQuantiles) {
  RunProfiler profiler;
  profiler.on_event_begin(sim::Time::zero(), 1, "warm", 3);
  profiler.on_event_end(sim::Time::zero(), "warm");

  EXPECT_EQ(profiler.events_total(), 1u);
  const auto it = profiler.categories().find("warm");
  ASSERT_NE(it, profiler.categories().end());
  EXPECT_EQ(it->second.events, 1u);

  std::ostringstream os;
  profiler.print(os);
  // One real sample: the quantile column must show a bucket bound, not the
  // zero-sample placeholder (match the "<=" prefix).
  EXPECT_NE(os.str().find("<="), std::string::npos);
}

TEST(RunProfiler, ExportsDeterministicDispatchMetrics) {
  RunProfiler profiler(/*timed=*/false);
  const auto dispatch = [&profiler](const char* category,
                                    std::size_t queue_depth) {
    profiler.on_event_begin(sim::Time::zero(), 0, category, queue_depth);
    profiler.on_event_end(sim::Time::zero(), category);
  };
  dispatch("peer.request", 4);
  dispatch("", 9);
  dispatch("peer.request", 2);

  MetricsRegistry registry;
  profiler.export_metrics(registry);
  const Counter* request =
      registry.find_counter("sim_events_dispatched",
                            {{"category", "peer.request"}});
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->value(), 2u);
  // The untagged category is exported under a readable label.
  const Counter* untagged = registry.find_counter(
      "sim_events_dispatched", {{"category", "(untagged)"}});
  ASSERT_NE(untagged, nullptr);
  EXPECT_EQ(untagged->value(), 1u);
  EXPECT_EQ(registry.find_counter("sim_events_dispatched", {{"category", ""}}),
            nullptr);
  const Gauge* peak = registry.find_gauge("sim_peak_queue_depth");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value(), 9.0);
  EXPECT_EQ(registry.size(), 3u);
}

}  // namespace
}  // namespace ppsim::obs
