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
  CountingTraceSink downstream;
  FlightRecorder::Options options;
  options.ring_capacity = 4;
  options.downstream = &downstream;
  FlightRecorder recorder(options);

  for (int i = 0; i < 10; ++i) recorder.write(chunk_event(i, i));
  recorder.write(TraceEvent(sim::Time::seconds(11), "peer_join"));

  EXPECT_EQ(downstream.total(), 11u);  // tee forwards everything
  // Ring keeps only the last 4 chunk events, but the rare event survives.
  EXPECT_EQ(recorder.events_buffered(), 5u);
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
  // The postmortem_dumps self-counter is incremented after the snapshot, so
  // the bundle reflects the pre-dump metric state.
  EXPECT_EQ(metrics.find_counter("postmortem_dumps")->value(), 1u);
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
  options.min_dump_gap = sim::Time::seconds(30);
  options.max_dumps = 2;
  FlightRecorder recorder(options);

  EXPECT_TRUE(recorder.trigger(sim::Time::seconds(10), "a"));
  EXPECT_FALSE(recorder.trigger(sim::Time::seconds(20), "b"));  // inside gap
  EXPECT_TRUE(recorder.trigger(sim::Time::seconds(50), "c"));
  EXPECT_FALSE(recorder.trigger(sim::Time::seconds(100), "d"));  // budget
  EXPECT_EQ(recorder.dumps_written(), 2u);
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
  options.min_dump_gap = sim::Time::seconds(1);
  FlightRecorder recorder(options);

  recorder.write(TraceEvent(sim::Time::seconds(5), "peer_crash"));
  EXPECT_EQ(recorder.dumps_written(), 1u);
  recorder.write(TraceEvent(sim::Time::seconds(10), "fault_begin"));
  EXPECT_EQ(recorder.dumps_written(), 2u);
  recorder.write(TraceEvent(sim::Time::seconds(15), "chunk_delivered"));
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

TEST_F(FlightRecorderTest, DumpCapTruncatesPerCategoryWithMarkerRows) {
  FlightRecorder::Options options;
  options.dir = dir();
  options.ring_capacity = 8;        // buffer more than the dump allows
  options.max_dump_per_category = 3;
  FlightRecorder recorder(options);

  for (int i = 0; i < 8; ++i) recorder.write(chunk_event(i, i));
  recorder.write(TraceEvent(sim::Time::seconds(9), "peer_join"));  // under cap

  ASSERT_TRUE(recorder.trigger(sim::Time::seconds(10), "cap-test"));
  const std::string bundle = slurp(recorder.dump_paths()[0]);

  // Header + section marker count only the kept events and declare the cut.
  EXPECT_NE(bundle.find("\"events\":4,"), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("\"section\":\"events\",\"count\":4,\"truncated\":1"),
            std::string::npos)
      << bundle;
  // One marker row for the capped ring; the uncapped one gets none.
  EXPECT_NE(bundle.find(
                "{\"truncated\":\"chunk_delivered\",\"kept\":3,\"dropped\":5}"),
            std::string::npos)
      << bundle;
  EXPECT_EQ(bundle.find("\"truncated\":\"peer_join\""), std::string::npos);
  // The kept events are the newest 3: n=5,6,7 survive, n=4 does not.
  EXPECT_NE(bundle.find("\"n\":7"), std::string::npos);
  EXPECT_NE(bundle.find("\"n\":5"), std::string::npos);
  EXPECT_EQ(bundle.find("\"n\":4"), std::string::npos);
}

TEST_F(FlightRecorderTest, DefaultDumpCapLeavesBundlesUntouched) {
  // Default ring capacity == default dump cap, so a default-config bundle
  // must carry no truncation vocabulary at all — existing consumers and
  // byte-identity goldens stay valid.
  FlightRecorder::Options options;
  options.dir = dir();
  FlightRecorder recorder(options);
  for (int i = 0; i < 100; ++i) recorder.write(chunk_event(i, i));
  ASSERT_TRUE(recorder.trigger(sim::Time::seconds(101), "no-cap"));
  const std::string bundle = slurp(recorder.dump_paths()[0]);
  EXPECT_EQ(bundle.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace ppsim::obs
