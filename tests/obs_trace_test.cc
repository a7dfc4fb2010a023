#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs_testutil.h"
#include "sim/simulator.h"

namespace ppsim::obs {
namespace {

TEST(NdjsonTraceSink, SerializesFieldsInEmissionOrder) {
  std::ostringstream os;
  NdjsonTraceSink sink(os);

  TraceEvent ev(sim::Time::millis(1500), "data_serve");
  ev.field("peer", "10.0.0.1")
      .field("chunk", std::uint64_t{42})
      .field("ok", true)
      .field("share", 0.5);
  sink.write(ev);

  EXPECT_EQ(os.str(),
            "{\"t\":1.500000,\"ev\":\"data_serve\",\"peer\":\"10.0.0.1\","
            "\"chunk\":42,\"ok\":true,\"share\":0.5}\n");
  EXPECT_EQ(sink.events_written(), 1u);
}

TEST(NdjsonTraceSink, EscapesStrings) {
  std::ostringstream os;
  NdjsonTraceSink sink(os);
  TraceEvent ev(sim::Time::zero(), "odd");
  ev.field("s", "a\"b\\c\nd");
  sink.write(ev);
  EXPECT_EQ(os.str(),
            "{\"t\":0.000000,\"ev\":\"odd\",\"s\":\"a\\\"b\\\\c\\nd\"}\n");
}

TEST(NdjsonTraceSink, NegativeAndSignedFields) {
  std::ostringstream os;
  NdjsonTraceSink sink(os);
  TraceEvent ev(sim::Time::seconds(2), "n");
  ev.field("delta", std::int64_t{-7}).field("i", -3);
  sink.write(ev);
  EXPECT_EQ(os.str(), "{\"t\":2.000000,\"ev\":\"n\",\"delta\":-7,\"i\":-3}\n");
}

TEST(CountingTraceSink, CountsPerName) {
  CountingTraceSink sink;
  sink.write(TraceEvent(sim::Time::zero(), "a"));
  sink.write(TraceEvent(sim::Time::zero(), "b"));
  sink.write(TraceEvent(sim::Time::zero(), "a"));
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.count("a"), 2u);
  EXPECT_EQ(sink.count("b"), 1u);
  EXPECT_EQ(sink.count("missing"), 0u);
}

TEST(SimEventTracer, EmitsOneRowPerExecutedEvent) {
  sim::Simulator simulator;
  std::ostringstream os;
  NdjsonTraceSink sink(os);
  SimEventTracer tracer(sink);
  simulator.add_observer(&tracer);

  simulator.schedule(sim::Time::seconds(1), [] {}, "cat.a");
  simulator.schedule(sim::Time::seconds(2), [] {});  // untagged
  simulator.run_until(sim::Time::seconds(5));

  EXPECT_EQ(sink.events_written(), 2u);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("\"ev\":\"sim_event\""), std::string::npos);
  EXPECT_NE(dump.find("\"cat\":\"cat.a\""), std::string::npos);
  EXPECT_NE(dump.find("\"cat\":\"\""), std::string::npos);
}

}  // namespace
}  // namespace ppsim::obs
