#include "capture/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ppsim::capture {
namespace {

proto::BufferMap make_map(proto::ChunkSeq base, std::initializer_list<bool> bits) {
  proto::BufferMap m;
  m.base = base;
  m.have.assign(bits);
  return m;
}

PacketTrace sample_trace() {
  PacketTrace trace;
  auto add = [&](std::int64_t us, net::Direction dir, std::uint32_t remote,
                 proto::Message m) {
    TraceRecord rec;
    rec.time = sim::Time::micros(us);
    rec.direction = dir;
    rec.local = net::IpAddress(0x0A000001);
    rec.remote = net::IpAddress(remote);
    rec.wire_bytes = proto::wire_size(m);
    rec.payload = std::move(m);
    trace.push_back(std::move(rec));
  };
  using namespace proto;
  add(100, net::Direction::kOutgoing, 0x14000001, Message{JoinQuery{3}});
  add(250, net::Direction::kIncoming, 0x14000001,
      Message{JoinReply{3, net::IpAddress(0x1E000001),
                        {net::IpAddress(1), net::IpAddress(2)}}});
  add(300, net::Direction::kOutgoing, 0x14000002, Message{TrackerQuery{3}});
  add(400, net::Direction::kIncoming, 0x14000002,
      Message{TrackerReply{3, {net::IpAddress(7)}}});
  add(500, net::Direction::kOutgoing, 7,
      Message{PeerListQuery{3, {net::IpAddress(9), net::IpAddress(11)}}});
  add(700, net::Direction::kIncoming, 7, Message{PeerListReply{3, {}}});
  add(800, net::Direction::kOutgoing, 7, Message{ConnectQuery{3}});
  add(900, net::Direction::kIncoming, 7,
      Message{ConnectReply{3, true, make_map(40, {true, false, true, true,
                                                  false})}});
  add(1000, net::Direction::kIncoming, 7,
      Message{BufferMapAnnounce{3, make_map(42, {true, true})}});
  add(1100, net::Direction::kOutgoing, 7, Message{DataQuery{3, 42}});
  add(1300, net::Direction::kIncoming, 7,
      Message{DataReply{3, 42, 4, 5520}});
  add(1400, net::Direction::kOutgoing, 7, Message{Goodbye{3}});
  add(1500, net::Direction::kOutgoing, 0x14000001,
      Message{ChannelListQuery{}});
  add(1600, net::Direction::kIncoming, 0x14000001,
      Message{ChannelListReply{{1, 2, 3}}});
  return trace;
}

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  if (a.time != b.time || a.direction != b.direction || a.local != b.local ||
      a.remote != b.remote || a.wire_bytes != b.wire_bytes)
    return false;
  // Compare payloads via their serialized form (Message has no ==).
  std::ostringstream sa, sb;
  PacketTrace ta{a}, tb{b};
  write_trace(sa, ta);
  write_trace(sb, tb);
  return sa.str() == sb.str();
}

TEST(TraceIoTest, RoundTripIdentity) {
  PacketTrace original = sample_trace();
  std::stringstream buffer;
  EXPECT_EQ(write_trace(buffer, original), original.size());

  std::size_t dropped = 99;
  PacketTrace restored = read_trace(buffer, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(records_equal(original[i], restored[i])) << "record " << i;
    EXPECT_EQ(proto::message_name(restored[i].payload),
              proto::message_name(original[i].payload));
  }
}

// The text format itself, one line per record of sample_trace().
TEST(TraceIoTest, WritesPinnedLines) {
  std::ostringstream out;
  EXPECT_EQ(write_trace(out, sample_trace()), 14u);
  EXPECT_EQ(out.str(),
            "100,out,167772161,335544321,40,JoinQuery,3\n"
            "250,in,167772161,335544321,56,JoinReply,3,503316481,2,1,2\n"
            "300,out,167772161,335544322,44,TrackerQuery,3\n"
            "400,in,167772161,335544322,46,TrackerReply,3,1,7\n"
            "500,out,167772161,7,52,PeerListQuery,3,2,9,11\n"
            "700,in,167772161,7,40,PeerListReply,3,0\n"
            "800,out,167772161,7,44,ConnectQuery,3\n"
            "900,in,167772161,7,49,ConnectReply,3,1,40,5,b0\n"
            "1000,in,167772161,7,49,BufferMapAnnounce,3,42,2,c\n"
            "1100,out,167772161,7,48,DataQuery,3,42\n"
            "1300,in,167772161,7,5644,DataReply,3,42,4,5520\n"
            "1400,out,167772161,7,40,Goodbye,3\n"
            "1500,out,167772161,335544321,36,ChannelListQuery\n"
            "1600,in,167772161,335544321,48,ChannelListReply,3,1,2,3\n");
}

// An empty map is written as `<base>,0,` with an empty hex token.
TEST(TraceIoTest, EmptyBufferMapsSurviveRoundTrip) {
  PacketTrace trace;
  for (proto::Message m :
       {proto::Message{proto::ConnectReply{3, false, make_map(40, {})}},
        proto::Message{proto::BufferMapAnnounce{3, make_map(0, {})}}}) {
    TraceRecord rec;
    rec.time = sim::Time::millis(5);
    rec.wire_bytes = proto::wire_size(m);
    rec.payload = std::move(m);
    trace.push_back(std::move(rec));
  }
  std::stringstream buffer;
  write_trace(buffer, trace);
  const std::string text = buffer.str();
  std::size_t dropped = 99;
  const PacketTrace restored = read_trace(buffer, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(restored.size(), 2u);
  std::ostringstream again;
  write_trace(again, restored);
  EXPECT_EQ(again.str(), text);
}

TEST(TraceIoTest, BufferMapBitsSurviveRoundTrip) {
  PacketTrace trace;
  TraceRecord rec;
  rec.time = sim::Time::millis(5);
  rec.direction = net::Direction::kIncoming;
  rec.local = net::IpAddress(1);
  rec.remote = net::IpAddress(2);
  proto::BufferMap map;
  map.base = 1000;
  for (int i = 0; i < 37; ++i) map.have.push_back(i % 3 == 0);
  rec.payload = proto::Message{proto::BufferMapAnnounce{9, map}};
  rec.wire_bytes = proto::wire_size(rec.payload);
  trace.push_back(rec);

  std::stringstream buffer;
  write_trace(buffer, trace);
  auto restored = read_trace(buffer);
  ASSERT_EQ(restored.size(), 1u);
  const auto* ann =
      std::get_if<proto::BufferMapAnnounce>(&restored[0].payload);
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->map.base, 1000u);
  ASSERT_EQ(ann->map.have.size(), 37u);
  for (int i = 0; i < 37; ++i)
    EXPECT_EQ(ann->map.have[static_cast<std::size_t>(i)], i % 3 == 0) << i;
}

TEST(TraceIoTest, MalformedLinesSkippedAndCounted) {
  std::stringstream buffer;
  buffer << "garbage\n";
  buffer << "100,out,1,2,50,DataQuery,3,42\n";  // valid
  buffer << "100,sideways,1,2,50,DataQuery,3,42\n";
  buffer << "100,out,1,2,50,NoSuchMessage,3\n";
  buffer << "100,out,1,2,50,DataQuery\n";  // missing fields
  // Counts beyond what the line holds, rejected before allocating.
  buffer << "0,in,1,2,3,TrackerReply,1,18446744073709551615\n";
  buffer << "0,in,1,2,3,TrackerReply,1,4000000000000\n";
  buffer << "0,in,1,2,3,BufferMapAnnounce,1,0,18446744073709551615,ff\n";
  // Tokens that do not fit their field, never narrowed.
  buffer << "0,in,1,2,3,JoinQuery,4294967297\n";
  buffer << "0,in,1,2,3,DataReply,1,42,4294967296,5520\n";
  buffer << "0,in,1,2,3,JoinReply,1,4294967297,0\n";
  buffer << "0,in,1,2,3,ConnectReply,1,2,40,5,b0\n";  // a bool is 0 or 1
  buffer << "0,in,4294967296,2,3,Goodbye,1\n";
  buffer << "0,in,1,4294967296,3,Goodbye,1\n";
  buffer << "100,out,1,2,50,DataQuery,3,42,7\n";  // a token past the fields
  buffer << "\n";
  std::size_t dropped = 0;
  auto trace = read_trace(buffer, &dropped);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(dropped, 14u);
}

TEST(TraceIoTest, ParseRecordSingle) {
  auto rec = parse_record("1500000,in,167772161,335544321,5560,DataReply,1,42,4,5520");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->time, sim::Time::millis(1500));
  EXPECT_EQ(rec->direction, net::Direction::kIncoming);
  const auto* dr = std::get_if<proto::DataReply>(&rec->payload);
  ASSERT_NE(dr, nullptr);
  EXPECT_EQ(dr->chunk, 42u);
  EXPECT_EQ(dr->payload_bytes, 5520u);
}

TEST(TraceIoTest, FileRoundTrip) {
  PacketTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/ppsim_trace_test.csv";
  ASSERT_TRUE(write_trace_file(path, original));
  auto restored = read_trace_file(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), original.size());
}

TEST(TraceIoTest, MissingFileIsNull) {
  EXPECT_FALSE(read_trace_file("/nonexistent/dir/trace.csv").has_value());
}

TEST(TraceIoTest, EmptyTrace) {
  std::stringstream buffer;
  EXPECT_EQ(write_trace(buffer, {}), 0u);
  EXPECT_TRUE(read_trace(buffer).empty());
}

}  // namespace
}  // namespace ppsim::capture
