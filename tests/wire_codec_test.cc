#include "wire/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "proto/message.h"
#include "sim/rng.h"

namespace ppsim::wire {
namespace {

constexpr std::uint16_t kEpoch = 7;

std::vector<std::uint8_t> encode_ok(const proto::Message& m) {
  std::vector<std::uint8_t> out;
  EXPECT_EQ(encode_message(m, kEpoch, &out), WireError::kOk);
  return out;
}

/// Round-trip check without a Message operator==: decode the datagram and
/// re-encode the result; a correct codec reproduces the bytes exactly (the
/// format has a unique encoding per message value).
void expect_round_trip(const proto::Message& m) {
  const std::vector<std::uint8_t> wire = encode_ok(m);
  EXPECT_EQ(wire.size(), proto::wire_size(m) - kIpUdpHeader);
  const DecodeResult decoded = decode_message(wire.data(), wire.size(), kEpoch);
  ASSERT_EQ(decoded.error, WireError::kOk) << proto::message_name(m);
  EXPECT_EQ(decoded.message.index(), m.index());
  const std::vector<std::uint8_t> again = encode_ok(decoded.message);
  EXPECT_EQ(wire, again) << proto::message_name(m);
  // Spans are trace metadata and must never survive the wire.
  std::visit([](const auto& msg) {
    EXPECT_EQ(msg.span.id, 0u);
    EXPECT_EQ(msg.span.parent, 0u);
  }, decoded.message);
}

proto::BufferMap sample_map(proto::ChunkSeq base, std::size_t n) {
  proto::BufferMap map;
  map.base = base;
  for (std::size_t i = 0; i < n; ++i) map.have.push_back(i % 3 == 0);
  return map;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  constexpr std::string_view kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// One message and the exact datagram encode_message gives for it at
/// kEpoch, written as the 8-byte header followed by the body.
struct Pin {
  const char* name;
  proto::Message message;
  std::string hex;
};

std::vector<Pin> pinned_packets() {
  using net::IpAddress;
  using namespace proto;
  return {
      {"ChannelListQuery", ChannelListQuery{{5, 6}}, "5057010000070000"},
      {"ChannelListReply", ChannelListReply{{1, 42, 0xFFFFFFFF}},
       "5057010100070000"
       "000000010000002affffffff"},
      {"JoinQuery", JoinQuery{77}, "5057010200070000"
                                   "0000004d"},
      {"JoinReply",
       JoinReply{9, IpAddress(127, 1, 0, 3),
                 {IpAddress(127, 1, 0, 2), IpAddress(127, 2, 0, 2)}},
       "5057010300070000"
       "000000097f010003"
       "7f0100020000"
       "7f0200020000"},
      {"TrackerQuery", TrackerQuery{3}, "5057010400070000"
                                        "0000000300000000"},
      {"TrackerReply",
       TrackerReply{3, {IpAddress(127, 2, 1, 1), IpAddress(127, 2, 1, 2)}},
       "5057010500070000"
       "00000003"
       "7f0201010000"
       "7f0201020000"},
      {"PeerListQuery", PeerListQuery{3, {IpAddress(127, 5, 0, 1)}},
       "5057010600070000"
       "00000003"
       "7f0500010000"},
      {"PeerListReply", PeerListReply{3, {}}, "5057010700070000"
                                              "00000003"},
      {"ConnectQuery", ConnectQuery{11}, "5057010800070000"
                                         "0000000b00000000"},
      {"ConnectReply", ConnectReply{11, true, sample_map(1000, 37)},
       "5057010900078005"
       "0000000b00000000000003e8"
       "9249249248"},
      {"ConnectReply accepted, 0-bit map", ConnectReply{11, true, {}},
       "5057010900078000"
       "0000000b0000000000000000"},
      {"ConnectReply rejected, 0-bit map",
       ConnectReply{11, false, sample_map(7, 0)},
       "5057010900070000"
       "0000000b0000000000000007"},
      {"ConnectReply rejected, 7-bit map",
       ConnectReply{11, false, sample_map(8, 7)},
       "5057010900070007"
       "0000000b0000000000000008"
       "92"},
      {"ConnectReply accepted, 9-bit map",
       ConnectReply{11, true, sample_map(9, 9)},
       "5057010900078001"
       "0000000b0000000000000009"
       "9200"},
      {"BufferMapAnnounce",
       BufferMapAnnounce{11, sample_map(123456789012345ull, 64)},
       "5057010a00070000"
       "0000000b00007048860ddf79"
       "9249249249249249"},
      {"DataQuery", DataQuery{11, 0xDEADBEEFCAFEull},
       "5057010b00070000"
       "0000000b0000deadbeefcafe"},
      {"DataReply", DataReply{11, 99, 1, 16},
       "5057010c00070000"
       "0000000b0000000000000063"
       "0000000100000010"},
      {"DataReply, padded", DataReply{11, 99, 2, 20},
       "5057010c00070000"
       "0000000b0000000000000063"
       "0000000200000014" +
           std::string(64, '0')},
      {"Goodbye", Goodbye{11}, "5057010d00070000"
                               "0000000b"},
  };
}

// --- one round-trip + encoded-size pin per Message variant ---

TEST(WireCodec, ChannelListQueryRoundTrip) {
  proto::ChannelListQuery m;
  m.span = {5, 6};  // must not be encoded
  EXPECT_EQ(encode_ok(m).size(), 8u);
  expect_round_trip(m);
}

TEST(WireCodec, ChannelListReplyRoundTrip) {
  proto::ChannelListReply m;
  m.channels = {1, 42, 0xFFFFFFFF};
  EXPECT_EQ(encode_ok(m).size(), 8u + 4 * 3);
  expect_round_trip(m);
  expect_round_trip(proto::ChannelListReply{});
}

TEST(WireCodec, JoinQueryRoundTrip) {
  const proto::JoinQuery m{77};
  EXPECT_EQ(encode_ok(m).size(), 12u);
  expect_round_trip(m);
}

TEST(WireCodec, JoinReplyRoundTrip) {
  proto::JoinReply m;
  m.channel = 9;
  m.source = net::IpAddress(127, 1, 0, 3);
  m.trackers = {net::IpAddress(127, 1, 0, 2), net::IpAddress(127, 2, 0, 2)};
  EXPECT_EQ(encode_ok(m).size(), 16u + 6 * 2);
  expect_round_trip(m);
}

TEST(WireCodec, TrackerQueryRoundTrip) {
  const proto::TrackerQuery m{3};
  EXPECT_EQ(encode_ok(m).size(), 16u);
  expect_round_trip(m);
}

TEST(WireCodec, TrackerReplyRoundTrip) {
  proto::TrackerReply m;
  m.channel = 3;
  for (std::uint8_t i = 1; i <= 60; ++i)
    m.peers.push_back(net::IpAddress(127, 2, 1, i));
  EXPECT_EQ(encode_ok(m).size(), 12u + 6 * 60);
  expect_round_trip(m);
}

TEST(WireCodec, PeerListQueryRoundTrip) {
  proto::PeerListQuery m;
  m.channel = 3;
  m.my_peers = {net::IpAddress(127, 5, 0, 1)};
  EXPECT_EQ(encode_ok(m).size(), 12u + 6);
  expect_round_trip(m);
}

TEST(WireCodec, PeerListReplyRoundTrip) {
  proto::PeerListReply m;
  m.channel = 3;
  m.peers = {net::IpAddress(127, 3, 0, 1), net::IpAddress(127, 4, 0, 1)};
  EXPECT_EQ(encode_ok(m).size(), 12u + 6 * 2);
  expect_round_trip(m);
}

TEST(WireCodec, ConnectQueryRoundTrip) {
  const proto::ConnectQuery m{11};
  EXPECT_EQ(encode_ok(m).size(), 16u);
  expect_round_trip(m);
}

TEST(WireCodec, ConnectReplyRoundTrip) {
  proto::ConnectReply m;
  m.channel = 11;
  m.accepted = true;
  m.map = sample_map(1000, 37);  // 37 % 8 == 5 trailing bits
  EXPECT_EQ(encode_ok(m).size(), 20u + (37 + 7) / 8);
  expect_round_trip(m);
  m.accepted = false;
  m.map = sample_map(0, 0);  // rejection with an empty map
  EXPECT_EQ(encode_ok(m).size(), 20u);
  expect_round_trip(m);
  m.map = sample_map(8, 16);  // exact byte multiple (trailing == 0)
  expect_round_trip(m);
}

TEST(WireCodec, BufferMapAnnounceRoundTrip) {
  proto::BufferMapAnnounce m;
  m.channel = 11;
  m.map = sample_map(123456789012345ull, 64);
  EXPECT_EQ(encode_ok(m).size(), 20u + 8);
  expect_round_trip(m);
}

TEST(WireCodec, DataQueryRoundTrip) {
  proto::DataQuery m;
  m.channel = 11;
  m.chunk = 0xDEADBEEFCAFEull;
  EXPECT_EQ(encode_ok(m).size(), 20u);
  expect_round_trip(m);
}

TEST(WireCodec, DataReplyRoundTrip) {
  proto::DataReply m;
  m.channel = 11;
  m.chunk = 99;
  m.subpieces = 4;
  m.payload_bytes = 5520;  // the default 1380 x 4 chunk
  EXPECT_EQ(encode_ok(m).size(), 5520u + 12 + 28 * 3);
  expect_round_trip(m);
}

TEST(WireCodec, GoodbyeRoundTrip) {
  const proto::Goodbye m{11};
  EXPECT_EQ(encode_ok(m).size(), 12u);
  expect_round_trip(m);
}

// The byte format itself: every variant, both states of ConnectReply's aux
// flag, bitmaps of 0, 7 and 9 bits, and a zero-padded DataReply.
TEST(WireCodec, EncodesPinnedBytes) {
  for (const Pin& pin : pinned_packets()) {
    SCOPED_TRACE(pin.name);
    const std::vector<std::uint8_t> wire = encode_ok(pin.message);
    EXPECT_EQ(to_hex(wire), pin.hex);
    const DecodeResult back = decode_message(wire.data(), wire.size(), kEpoch);
    ASSERT_EQ(back.error, WireError::kOk);
    EXPECT_EQ(back.message.index(), pin.message.index());
    EXPECT_EQ(to_hex(encode_ok(back.message)), pin.hex);
  }
}

TEST(WireCodec, DegenerateDataReplyIsUnencodable) {
  // payload budget below the fixed fields: the protocol never produces
  // this shape, and v1 refuses it rather than lying about sizes.
  proto::DataReply m;
  m.subpieces = 1;
  m.payload_bytes = 0;
  std::vector<std::uint8_t> out;
  EXPECT_EQ(encode_message(m, kEpoch, &out), WireError::kUnencodable);
  EXPECT_TRUE(out.empty());
  // A payload near 2^32 bytes is far past any datagram; its budget must not
  // wrap around to a small one.
  m.subpieces = 2;
  m.payload_bytes = 0xFFFFFFF4;
  EXPECT_EQ(proto::wire_size(m), kIpUdpHeader + 12 + 0xFFFFFFF4ull + 28);
  EXPECT_EQ(encode_message(m, kEpoch, &out), WireError::kUnencodable);
  EXPECT_TRUE(out.empty());
}

// --- malformed-packet rejection, one distinct error per failure shape ---

TEST(WireCodec, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  for (std::size_t len = 0; len < kHeaderBytes; ++len)
    EXPECT_EQ(decode_message(wire.data(), len, kEpoch).error,
              WireError::kTruncated);
}

// A fixed-size body shorter than its fields runs out of bytes inside a
// field: truncated, like a short header.
TEST(WireCodec, RejectsShortFixedBodyAsTruncated) {
  const proto::Message fixed[] = {proto::JoinQuery{1}, proto::TrackerQuery{1},
                                  proto::ConnectQuery{1},
                                  proto::DataQuery{1, 2}, proto::Goodbye{1}};
  for (const proto::Message& m : fixed) {
    const std::vector<std::uint8_t> wire = encode_ok(m);
    EXPECT_EQ(decode_message(wire.data(), kHeaderBytes + 3, kEpoch).error,
              WireError::kTruncated)
        << proto::message_name(m);
  }
}

TEST(WireCodec, RejectsBadMagic) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[0] ^= 0xFF;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadMagic);
}

TEST(WireCodec, RejectsBadVersion) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[2] = kVersion + 1;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadVersion);
}

TEST(WireCodec, RejectsBadEpoch) {
  const std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch + 1).error,
            WireError::kBadEpoch);
}

TEST(WireCodec, RejectsBadTag) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[3] = std::variant_size_v<proto::Message>;  // one past the last tag
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadTag);
}

TEST(WireCodec, RejectsBadLength) {
  std::vector<std::uint8_t> wire = encode_ok(proto::TrackerReply{3, {}, {}});
  wire.push_back(0);  // 6-byte address entries can't cover 1 extra byte
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadLength);
  // A 28-byte DataReply that claims 2 sub-pieces of 0xFFFFFFF4 bytes.
  wire = encode_ok(proto::DataReply{11, 99, 1, 16});
  wire[23] = 2;
  wire[24] = wire[25] = wire[26] = 0xFF;
  wire[27] = 0xF4;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadLength);
}

TEST(WireCodec, RejectsBadAux) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[7] = 1;  // JoinQuery defines no aux bits
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadAux);
}

TEST(WireCodec, RejectsBadReserved) {
  std::vector<std::uint8_t> wire = encode_ok(proto::TrackerQuery{3});
  wire.back() = 1;  // reserved tail must be zero
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadReserved);
  // Nonzero port slot in an address list.
  proto::TrackerReply r;
  r.channel = 1;
  r.peers = {net::IpAddress(127, 1, 0, 1)};
  wire = encode_ok(r);
  wire.back() = 9;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadReserved);
}

TEST(WireCodec, RejectsBitmapPaddingBits) {
  proto::BufferMapAnnounce m;
  m.channel = 1;
  m.map = sample_map(10, 3);  // one bitmap byte, 3 significant bits
  std::vector<std::uint8_t> wire = encode_ok(m);
  wire.back() |= 0x01;  // light up a padding bit
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadReserved);
}

TEST(WireCodec, ErrorNamesAreDistinct) {
  const WireError all[] = {
      WireError::kOk,        WireError::kTruncated,  WireError::kBadMagic,
      WireError::kBadVersion, WireError::kBadEpoch,  WireError::kBadTag,
      WireError::kBadLength, WireError::kBadAux,     WireError::kBadReserved,
      WireError::kUnencodable};
  for (const auto a : all) {
    for (const auto b : all) {
      if (a != b) {
        EXPECT_NE(wire_error_name(a), wire_error_name(b));
      }
    }
  }
}

// --- seeded fuzz: decode must reject garbage gracefully, never crash ---

TEST(WireCodec, FuzzRandomBuffersNeverCrash) {
  sim::Rng rng(0xF0221);
  std::vector<std::uint8_t> buf;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t len = static_cast<std::size_t>(rng.next_below(600));
    buf.resize(len);
    for (auto& b : buf)
      b = static_cast<std::uint8_t>(rng.next_below(256));
    // Every other buffer starts with a header this node accepts, mostly
    // with aux 0 and with tags 0-15 (two past the last), so random bodies
    // reach the field readers; the magic alone is 1 in 65,536.
    if (iter % 2 == 1 && len >= kHeaderBytes) {
      const std::uint8_t header[] = {
          kMagic >> 8, kMagic & 0xFF, kVersion,
          static_cast<std::uint8_t>(buf[3] % 16), kEpoch >> 8, kEpoch & 0xFF,
          static_cast<std::uint8_t>(iter % 4 == 3 ? buf[6] & 0x80 : 0),
          static_cast<std::uint8_t>(iter % 4 == 3 ? buf[7] & 0x07 : 0)};
      std::copy(std::begin(header), std::end(header), buf.begin());
    }
    const DecodeResult r = decode_message(buf.data(), buf.size(), kEpoch);
    if (r.error == WireError::kOk) {
      // A random buffer that decodes must still satisfy the size identity.
      EXPECT_EQ(proto::wire_size(r.message), buf.size() + kIpUdpHeader);
    }
  }
}

TEST(WireCodec, FuzzMutatedValidPacketsNeverCrash) {
  sim::Rng rng(0xF0222);
  proto::TrackerReply tr;
  tr.channel = 5;
  for (std::uint8_t i = 1; i <= 20; ++i)
    tr.peers.push_back(net::IpAddress(127, 1, 0, i));
  proto::BufferMapAnnounce bma;
  bma.channel = 5;
  bma.map = sample_map(40, 100);
  proto::DataReply dr;
  dr.channel = 5;
  dr.chunk = 1;
  dr.subpieces = 4;
  dr.payload_bytes = 5520;
  std::vector<proto::Message> seeds = {tr, bma, dr};
  for (const Pin& pin : pinned_packets()) seeds.push_back(pin.message);
  for (const auto& seed : seeds) {
    const std::vector<std::uint8_t> clean = encode_ok(seed);
    for (int iter = 0; iter < 1000; ++iter) {
      std::vector<std::uint8_t> wire = clean;
      // Truncate, extend, or flip bytes at random.
      switch (rng.next_below(3)) {
        case 0:
          wire.resize(static_cast<std::size_t>(rng.next_below(wire.size())));
          break;
        case 1:
          wire.resize(wire.size() + 1 + rng.next_below(16), 0);
          break;
        default:
          for (int flips = 0; flips < 4; ++flips)
            wire[static_cast<std::size_t>(rng.next_below(wire.size()))] =
                static_cast<std::uint8_t>(rng.next_below(256));
          break;
      }
      const DecodeResult r = decode_message(wire.data(), wire.size(), kEpoch);
      if (r.error == WireError::kOk) {
        EXPECT_EQ(proto::wire_size(r.message), wire.size() + kIpUdpHeader);
      }
    }
  }
}

}  // namespace
}  // namespace ppsim::wire
