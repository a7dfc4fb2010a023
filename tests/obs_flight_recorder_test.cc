#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs_testutil.h"
#include "sim/time.h"

namespace ppsim::obs {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory under the system temp dir.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ppsim_fr_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  fs::path dir_;
};

TraceEvent chunk_event(double t, int n) {
  TraceEvent event(sim::Time::seconds(t), "chunk_delivered");
  event.field("n", n);
  return event;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(FlightRecorderTest, ForwardsDownstreamAndBoundsRings) {
  // The runner's composition: a tee hands every event to the downstream
  // sink and to the recorder.
  CountingTraceSink downstream;
  FlightRecorder recorder(FlightRecorder::Options{});
  TeeTraceSink tee{&downstream, &recorder};

  const int chunks = static_cast<int>(FlightRecorder::kRingCapacity) + 10;
  for (int i = 0; i < chunks; ++i) tee.write(chunk_event(i, i));
  tee.write(TraceEvent(sim::Time::seconds(chunks), "peer_join"));

  EXPECT_EQ(downstream.total(), static_cast<std::uint64_t>(chunks) + 1);
  // The ring keeps only the last kRingCapacity chunk events, but the rare
  // event survives.
  EXPECT_EQ(recorder.events_buffered(), FlightRecorder::kRingCapacity + 1);
}

TEST_F(FlightRecorderTest, TriggerDumpsBundleWithSections) {
  MetricsRegistry metrics;
  metrics.counter("chunks").inc(7);
  FlightRecorder::Options options;
  options.dir = dir();
  options.metrics = &metrics;
  FlightRecorder recorder(options);

  for (int i = 0; i < 3; ++i) recorder.write(chunk_event(i, i));
  TrafficSample sample;
  sample.t = sim::Time::seconds(2);
  sample.alive_peers = 42;
  recorder.note_sample(sample);

  ASSERT_TRUE(recorder.trigger(sim::Time::seconds(3), "test-reason"));
  EXPECT_EQ(recorder.dumps_written(), 1u);
  EXPECT_EQ(recorder.dump_failures(), 0u);
  ASSERT_EQ(recorder.dump_paths().size(), 1u);

  const std::string bundle = slurp(recorder.dump_paths()[0]);
  EXPECT_NE(bundle.find("\"postmortem\":\"test-reason\""), std::string::npos);
  EXPECT_NE(bundle.find("\"section\":\"events\""), std::string::npos);
  EXPECT_NE(bundle.find("\"section\":\"samples\""), std::string::npos);
  EXPECT_NE(bundle.find("\"section\":\"metrics\""), std::string::npos);
  EXPECT_NE(bundle.find("chunk_delivered"), std::string::npos);
  EXPECT_NE(bundle.find("\"alive\":42"), std::string::npos);
  // The recorder counts its dumps itself and writes them only into the
  // registry it is asked to export to.
  EXPECT_EQ(metrics.find_counter("postmortem_dumps"), nullptr);
  recorder.export_metrics(metrics);
  EXPECT_EQ(metrics.find_counter("postmortem_dumps")->value(), 1u);
}

TEST_F(FlightRecorderTest, PreDumpHookFillsTheMetricsSection) {
  MetricsRegistry metrics;
  FlightRecorder::Options options;
  options.dir = dir();
  options.metrics = &metrics;
  FlightRecorder recorder(options);
  int calls = 0;
  recorder.set_pre_dump_hook([&](MetricsRegistry& m) {
    ++calls;
    recorder.export_metrics(m);
    m.counter("hooked").raise_to(7);
  });

  const sim::Time gap = FlightRecorder::kMinDumpGap;
  ASSERT_TRUE(recorder.trigger(gap, "first"));
  ASSERT_TRUE(recorder.trigger(gap * 2, "second"));
  EXPECT_EQ(calls, 2);
  // The hook runs before the section header counts the series, and sees
  // the dumps written before this one.
  const std::string first = slurp(recorder.dump_paths()[0]);
  EXPECT_NE(first.find("{\"section\":\"metrics\",\"count\":1}"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("\"metric\":\"hooked\""), std::string::npos);
  EXPECT_EQ(first.find("postmortem_dumps"), std::string::npos);
  const std::string second = slurp(recorder.dump_paths()[1]);
  EXPECT_NE(second.find("{\"section\":\"metrics\",\"count\":2}"),
            std::string::npos)
      << second;
  EXPECT_NE(second.find("{\"metric\":\"postmortem_dumps\",\"type\":"
                        "\"counter\",\"labels\":{},\"value\":1}"),
            std::string::npos)
      << second;

  // A cleared hook is not called.
  recorder.set_pre_dump_hook(nullptr);
  ASSERT_TRUE(recorder.trigger(gap * 3, "third"));
  EXPECT_EQ(calls, 2);
}

TEST_F(FlightRecorderTest, DumpFilenameUsesSimTimeAndSanitizedReason) {
  FlightRecorder::Options options;
  options.dir = dir();
  FlightRecorder recorder(options);
  ASSERT_TRUE(recorder.trigger(sim::Time::millis(1500), "health x/y"));
  const std::string path = recorder.dump_paths()[0];
  EXPECT_NE(path.find("postmortem-000-health-x-y-t1500000.ndjson"),
            std::string::npos)
      << path;
}

TEST_F(FlightRecorderTest, DebounceAndBudgetLimitDumps) {
  FlightRecorder::Options options;
  options.dir = dir();
  FlightRecorder recorder(options);

  const sim::Time gap = FlightRecorder::kMinDumpGap;
  EXPECT_TRUE(recorder.trigger(gap, "a"));
  EXPECT_FALSE(recorder.trigger(gap + gap / 2, "b"));  // inside the gap
  // Triggers one gap apart each dump until the per-run budget is spent.
  for (std::size_t i = 2; i <= FlightRecorder::kMaxDumps; ++i)
    EXPECT_TRUE(recorder.trigger(gap * static_cast<std::int64_t>(i), "c"));
  EXPECT_FALSE(recorder.trigger(
      gap * static_cast<std::int64_t>(FlightRecorder::kMaxDumps + 1), "d"));
  EXPECT_EQ(recorder.dumps_written(), FlightRecorder::kMaxDumps);
}

TEST_F(FlightRecorderTest, NoDirMeansNoDump) {
  FlightRecorder recorder(FlightRecorder::Options{});
  recorder.write(chunk_event(1, 1));
  EXPECT_FALSE(recorder.trigger(sim::Time::seconds(2), "nope"));
  EXPECT_EQ(recorder.dumps_written(), 0u);
}

TEST_F(FlightRecorderTest, AutoTriggersOnCrashAndFaultBegin) {
  FlightRecorder::Options options;
  options.dir = dir();
  FlightRecorder recorder(options);

  // Each event lands one debounce gap after the last.
  const sim::Time gap = FlightRecorder::kMinDumpGap;
  recorder.write(TraceEvent(gap, "peer_crash"));
  EXPECT_EQ(recorder.dumps_written(), 1u);
  recorder.write(TraceEvent(gap * 2, "fault_begin"));
  EXPECT_EQ(recorder.dumps_written(), 2u);
  recorder.write(TraceEvent(gap * 3, "chunk_delivered"));
  EXPECT_EQ(recorder.dumps_written(), 2u);  // ordinary events don't trigger
}

TEST_F(FlightRecorderTest, SameInputsDumpByteIdenticalBundles) {
  auto run_once = [](const std::string& dir) {
    FlightRecorder::Options options;
    options.dir = dir;
    FlightRecorder recorder(options);
    for (int i = 0; i < 5; ++i) recorder.write(chunk_event(i, i));
    TrafficSample sample;
    sample.t = sim::Time::seconds(4);
    sample.alive_peers = 9;
    recorder.note_sample(sample);
    recorder.trigger(sim::Time::seconds(5), "same");
    return recorder.dump_paths()[0];
  };
  const fs::path dir_b = dir_ / "b";
  const std::string a = run_once((dir_ / "a").string());
  const std::string b = run_once(dir_b.string());
  EXPECT_EQ(fs::path(a).filename(), fs::path(b).filename());
  EXPECT_EQ(slurp(a), slurp(b));
}

}  // namespace
}  // namespace ppsim::obs
