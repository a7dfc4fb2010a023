// Sink-composition contract: when one tee feeds an NDJSON sink, the flight
// recorder and a span tracker, every sink observes the identical event
// sequence — pinned by byte-comparing the recorder's ring-buffer dump (its
// events section) against the NDJSON sink's output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/span_tracker.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ppsim::obs {
namespace {

std::string events_section(const std::string& bundle_path) {
  std::ifstream in(bundle_path);
  std::string line, out;
  bool in_events = false;
  while (std::getline(in, line)) {
    if (line.find("\"section\":") != std::string::npos) {
      in_events = line.find("\"section\":\"events\"") != std::string::npos;
      continue;
    }
    if (in_events) out += line + "\n";
  }
  return out;
}

TEST(SinkComposition, RecorderTeeAndSpanTrackerSeeIdenticalSequences) {
  std::ostringstream ndjson_os;
  NdjsonTraceSink ndjson(ndjson_os);
  SpanTracker tracker;
  FlightRecorder::Options options;
  options.dir = ::testing::TempDir();
  FlightRecorder recorder(options);
  TeeTraceSink tee{&ndjson, &recorder, &tracker};

  // A deterministic mixed stream: span-bearing protocol events plus one
  // peer's startup milestones, through the composition the runner builds
  // for --trace-out + --postmortem-dir + --spans-out. No event name
  // reaches the recorder's ring capacity, so nothing evicts.
  tee.write(TraceEvent(sim::Time::seconds(1), "peer_join")
                .field("peer", "10.1.0.1").field("isp", "TELE")
                .field("span", std::uint64_t{1}));
  for (int i = 0; i < 50; ++i) {
    tee.write(TraceEvent(sim::Time::seconds(2 + i), "data_request")
                  .field("peer", "10.1.0.1")
                  .field("chunk", static_cast<std::uint64_t>(i))
                  .field("span", static_cast<std::uint64_t>(10 + i))
                  .field("parent", std::uint64_t{1}));
  }
  tee.write(TraceEvent(sim::Time::seconds(60), "playback_start")
                .field("peer", "10.1.0.1")
                .field("span", std::uint64_t{99})
                .field("parent", std::uint64_t{1}));

  // Every sink behind the tee saw every event, in order.
  EXPECT_EQ(ndjson.events_written(), 52u);
  EXPECT_EQ(recorder.events_buffered(), 52u);
  EXPECT_EQ(tracker.events_observed(), 52u);
  EXPECT_EQ(tracker.span_count(), 52u);
  EXPECT_EQ(tracker.parent_of(99), 1u);

  ASSERT_TRUE(recorder.trigger(sim::Time::seconds(61), "test"));
  ASSERT_EQ(recorder.dump_paths().size(), 1u);
  const std::string dumped = events_section(recorder.dump_paths()[0]);
  // Ring dump vs live sink: byte-identical.
  EXPECT_EQ(dumped, ndjson_os.str());
  std::remove(recorder.dump_paths()[0].c_str());
}

TEST(SinkComposition, TeeSkipsNullSinksAndPreservesOrder) {
  std::ostringstream a_os, b_os;
  NdjsonTraceSink a(a_os), b(b_os);
  TeeTraceSink tee{&a, nullptr, &b};
  tee.write(TraceEvent(sim::Time::seconds(1), "x").field("n", 1));
  tee.write(TraceEvent(sim::Time::seconds(2), "y").field("n", 2));
  EXPECT_EQ(a_os.str(), b_os.str());
  EXPECT_EQ(a.events_written(), 2u);
  EXPECT_EQ(b.events_written(), 2u);
}

}  // namespace
}  // namespace ppsim::obs
