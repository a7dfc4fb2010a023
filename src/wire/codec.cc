#include "wire/codec.h"

#include <algorithm>
#include <cassert>

namespace ppsim::wire {

namespace {

// Big-endian (network order) primitives. The format is explicit about byte
// order so heterogenous hosts interoperate; loopback tests exercise the
// same paths.
void put_u16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) |
                                    std::uint16_t{p[1]});
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{get_u16(p)} << 16) | get_u16(p + 2);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return (std::uint64_t{get_u32(p)} << 32) | get_u32(p + 4);
}

/// Addresses travel as 6 bytes — IPv4 + a 2-byte port slot, the shape real
/// peer-list entries have. The deployment binds every node to one shared
/// port (docs/WIRE.md), so the slot is written zero and must read zero.
void put_addr(std::vector<std::uint8_t>* out, net::IpAddress ip) {
  put_u32(out, ip.value());
  put_u16(out, 0);
}

/// aux bit assignments for the bitmap-carrying variants: bits 0-2 hold the
/// trailing-bit count of the last bitmap byte (have.size() % 8), bit 15
/// holds ConnectReply::accepted. All other aux bits are undefined in v1 and
/// must be zero.
constexpr std::uint16_t kAuxTrailingMask = 0x0007;
constexpr std::uint16_t kAuxAcceptedBit = 0x8000;

void put_bitmap(std::vector<std::uint8_t>* out,
                const std::vector<bool>& have) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (have[i]) acc |= static_cast<std::uint8_t>(1u << (7 - i % 8));
    if (i % 8 == 7) {
      out->push_back(acc);
      acc = 0;
    }
  }
  if (have.size() % 8 != 0) out->push_back(acc);
}

/// Reconstructs a bitmap from `bytes` bitmap bytes whose last byte carries
/// `trailing` significant bits (0 meaning a full 8). Returns false when the
/// padding bits of the last byte are not zero.
bool get_bitmap(const std::uint8_t* p, std::size_t bytes,
                std::uint16_t trailing, std::vector<bool>* have) {
  if (bytes == 0) return true;
  const std::size_t n =
      (bytes - 1) * 8 + (trailing == 0 ? 8 : static_cast<std::size_t>(trailing));
  have->reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    have->push_back((p[i / 8] >> (7 - i % 8)) & 1u);
  // Unused low-order bits of the last byte are padding and must be zero.
  if (trailing != 0) {
    const std::uint8_t pad_mask =
        static_cast<std::uint8_t>(0xFFu >> trailing);
    if ((p[bytes - 1] & pad_mask) != 0) return false;
  }
  return true;
}

struct EncodeVisitor {
  std::vector<std::uint8_t>* out;
  std::uint16_t epoch;

  void header(Tag tag, std::uint16_t aux) const {
    put_u16(out, kMagic);
    out->push_back(kVersion);
    out->push_back(static_cast<std::uint8_t>(tag));
    put_u16(out, epoch);
    put_u16(out, aux);
  }

  WireError operator()(const proto::ChannelListQuery&) const {
    header(Tag::kChannelListQuery, 0);
    return WireError::kOk;
  }
  WireError operator()(const proto::ChannelListReply& m) const {
    header(Tag::kChannelListReply, 0);
    for (const auto c : m.channels) put_u32(out, c);
    return WireError::kOk;
  }
  WireError operator()(const proto::JoinQuery& m) const {
    header(Tag::kJoinQuery, 0);
    put_u32(out, m.channel);
    return WireError::kOk;
  }
  WireError operator()(const proto::JoinReply& m) const {
    header(Tag::kJoinReply, 0);
    put_u32(out, m.channel);
    put_u32(out, m.source.value());
    for (const auto t : m.trackers) put_addr(out, t);
    return WireError::kOk;
  }
  WireError operator()(const proto::TrackerQuery& m) const {
    header(Tag::kTrackerQuery, 0);
    put_u32(out, m.channel);
    put_u32(out, 0);  // reserved
    return WireError::kOk;
  }
  WireError operator()(const proto::TrackerReply& m) const {
    header(Tag::kTrackerReply, 0);
    put_u32(out, m.channel);
    for (const auto p : m.peers) put_addr(out, p);
    return WireError::kOk;
  }
  WireError operator()(const proto::PeerListQuery& m) const {
    header(Tag::kPeerListQuery, 0);
    put_u32(out, m.channel);
    for (const auto p : m.my_peers) put_addr(out, p);
    return WireError::kOk;
  }
  WireError operator()(const proto::PeerListReply& m) const {
    header(Tag::kPeerListReply, 0);
    put_u32(out, m.channel);
    for (const auto p : m.peers) put_addr(out, p);
    return WireError::kOk;
  }
  WireError operator()(const proto::ConnectQuery& m) const {
    header(Tag::kConnectQuery, 0);
    put_u32(out, m.channel);
    put_u32(out, 0);  // reserved
    return WireError::kOk;
  }
  WireError operator()(const proto::ConnectReply& m) const {
    const auto trailing =
        static_cast<std::uint16_t>(m.map.have.size() % 8);
    header(Tag::kConnectReply,
           static_cast<std::uint16_t>((m.accepted ? kAuxAcceptedBit : 0) |
                                      trailing));
    put_u32(out, m.channel);
    put_u64(out, m.map.base);
    put_bitmap(out, m.map.have);
    return WireError::kOk;
  }
  WireError operator()(const proto::BufferMapAnnounce& m) const {
    header(Tag::kBufferMapAnnounce,
           static_cast<std::uint16_t>(m.map.have.size() % 8));
    put_u32(out, m.channel);
    put_u64(out, m.map.base);
    put_bitmap(out, m.map.have);
    return WireError::kOk;
  }
  WireError operator()(const proto::DataQuery& m) const {
    header(Tag::kDataQuery, 0);
    put_u32(out, m.channel);
    put_u64(out, m.chunk);
    return WireError::kOk;
  }
  WireError operator()(const proto::DataReply& m) const {
    // The sim charges payload + one 12-byte protocol header + one extra
    // IP+UDP header per additional sub-piece; the v1 datagram spends 28
    // bytes on real fields and zero-fills the rest of that budget. A reply
    // whose budget is below the fixed fields (payload_bytes < 16 with at
    // most one sub-piece — never produced by the protocol) has no encoding.
    const std::uint64_t total =
        12 + m.payload_bytes +
        kIpUdpHeader * (m.subpieces > 0 ? m.subpieces - 1 : 0);
    if (total < kHeaderBytes + 20 || total > kMaxDatagram)
      return WireError::kUnencodable;
    header(Tag::kDataReply, 0);
    put_u32(out, m.channel);
    put_u64(out, m.chunk);
    put_u32(out, m.subpieces);
    put_u32(out, m.payload_bytes);
    out->resize(static_cast<std::size_t>(total), 0);
    return WireError::kOk;
  }
  WireError operator()(const proto::Goodbye& m) const {
    header(Tag::kGoodbye, 0);
    put_u32(out, m.channel);
    return WireError::kOk;
  }
};

/// Body decoders. `p` points at the body (after the header), `len` is the
/// body length in bytes; header fields arrive pre-validated except aux,
/// which each decoder owns.

WireError expect_aux_zero(std::uint16_t aux) {
  return aux == 0 ? WireError::kOk : WireError::kBadAux;
}

WireError decode_channel_list_query(const std::uint8_t*, std::size_t len,
                                    std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len != 0) return WireError::kBadLength;
  *m = proto::ChannelListQuery{};
  return WireError::kOk;
}

WireError decode_channel_list_reply(const std::uint8_t* p, std::size_t len,
                                    std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len % 4 != 0) return WireError::kBadLength;
  proto::ChannelListReply r;
  r.channels.reserve(len / 4);
  for (std::size_t i = 0; i < len; i += 4) r.channels.push_back(get_u32(p + i));
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_join_query(const std::uint8_t* p, std::size_t len,
                            std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len != 4) return WireError::kBadLength;
  *m = proto::JoinQuery{get_u32(p)};
  return WireError::kOk;
}

/// Shared 6-byte address-list tail of JoinReply/TrackerReply/PeerList*.
WireError decode_addr_list(const std::uint8_t* p, std::size_t len,
                           std::vector<net::IpAddress>* out) {
  if (len % 6 != 0) return WireError::kBadLength;
  out->reserve(len / 6);
  for (std::size_t i = 0; i < len; i += 6) {
    if (get_u16(p + i + 4) != 0) return WireError::kBadReserved;
    out->push_back(net::IpAddress(get_u32(p + i)));
  }
  return WireError::kOk;
}

WireError decode_join_reply(const std::uint8_t* p, std::size_t len,
                            std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len < 8) return WireError::kTruncated;
  proto::JoinReply r;
  r.channel = get_u32(p);
  r.source = net::IpAddress(get_u32(p + 4));
  if (const auto e = decode_addr_list(p + 8, len - 8, &r.trackers);
      e != WireError::kOk)
    return e;
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_tracker_query(const std::uint8_t* p, std::size_t len,
                               std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len != 8) return WireError::kBadLength;
  if (get_u32(p + 4) != 0) return WireError::kBadReserved;
  *m = proto::TrackerQuery{get_u32(p)};
  return WireError::kOk;
}

WireError decode_tracker_reply(const std::uint8_t* p, std::size_t len,
                               std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len < 4) return WireError::kTruncated;
  proto::TrackerReply r;
  r.channel = get_u32(p);
  if (const auto e = decode_addr_list(p + 4, len - 4, &r.peers);
      e != WireError::kOk)
    return e;
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_peer_list_query(const std::uint8_t* p, std::size_t len,
                                 std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len < 4) return WireError::kTruncated;
  proto::PeerListQuery r;
  r.channel = get_u32(p);
  if (const auto e = decode_addr_list(p + 4, len - 4, &r.my_peers);
      e != WireError::kOk)
    return e;
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_peer_list_reply(const std::uint8_t* p, std::size_t len,
                                 std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len < 4) return WireError::kTruncated;
  proto::PeerListReply r;
  r.channel = get_u32(p);
  if (const auto e = decode_addr_list(p + 4, len - 4, &r.peers);
      e != WireError::kOk)
    return e;
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_connect_query(const std::uint8_t* p, std::size_t len,
                               std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len != 8) return WireError::kBadLength;
  if (get_u32(p + 4) != 0) return WireError::kBadReserved;
  *m = proto::ConnectQuery{get_u32(p)};
  return WireError::kOk;
}

WireError decode_bitmap_body(const std::uint8_t* p, std::size_t len,
                             std::uint16_t trailing, proto::ChannelId* channel,
                             proto::BufferMap* map) {
  if (len < 12) return WireError::kTruncated;
  const std::size_t bitmap_bytes = len - 12;
  if (bitmap_bytes == 0 && trailing != 0) return WireError::kBadLength;
  *channel = get_u32(p);
  map->base = get_u64(p + 4);
  if (!get_bitmap(p + 12, bitmap_bytes, trailing, &map->have))
    return WireError::kBadReserved;
  return WireError::kOk;
}

WireError decode_connect_reply(const std::uint8_t* p, std::size_t len,
                               std::uint16_t aux, proto::Message* m) {
  if ((aux & ~(kAuxAcceptedBit | kAuxTrailingMask)) != 0)
    return WireError::kBadAux;
  proto::ConnectReply r;
  r.accepted = (aux & kAuxAcceptedBit) != 0;
  if (const auto e = decode_bitmap_body(p, len, aux & kAuxTrailingMask,
                                        &r.channel, &r.map);
      e != WireError::kOk)
    return e;
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_buffer_map_announce(const std::uint8_t* p, std::size_t len,
                                     std::uint16_t aux, proto::Message* m) {
  if ((aux & ~kAuxTrailingMask) != 0) return WireError::kBadAux;
  proto::BufferMapAnnounce r;
  if (const auto e = decode_bitmap_body(p, len, aux & kAuxTrailingMask,
                                        &r.channel, &r.map);
      e != WireError::kOk)
    return e;
  *m = std::move(r);
  return WireError::kOk;
}

WireError decode_data_query(const std::uint8_t* p, std::size_t len,
                            std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len != 12) return WireError::kBadLength;
  proto::DataQuery r;
  r.channel = get_u32(p);
  r.chunk = get_u64(p + 4);
  *m = r;
  return WireError::kOk;
}

WireError decode_data_reply(const std::uint8_t* p, std::size_t len,
                            std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len < 20) return WireError::kTruncated;
  proto::DataReply r;
  r.channel = get_u32(p);
  r.chunk = get_u64(p + 4);
  r.subpieces = get_u32(p + 12);
  r.payload_bytes = get_u32(p + 16);
  const std::uint64_t expected =
      4 + r.payload_bytes +
      kIpUdpHeader * (r.subpieces > 0 ? r.subpieces - 1 : 0);
  if (expected != len) return WireError::kBadLength;
  if (std::any_of(p + 20, p + len, [](std::uint8_t b) { return b != 0; }))
    return WireError::kBadReserved;
  *m = r;
  return WireError::kOk;
}

WireError decode_goodbye(const std::uint8_t* p, std::size_t len,
                         std::uint16_t aux, proto::Message* m) {
  if (const auto e = expect_aux_zero(aux); e != WireError::kOk) return e;
  if (len != 4) return WireError::kBadLength;
  *m = proto::Goodbye{get_u32(p)};
  return WireError::kOk;
}

}  // namespace

std::string_view wire_error_name(WireError e) {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadEpoch: return "bad-epoch";
    case WireError::kBadTag: return "bad-tag";
    case WireError::kBadLength: return "bad-length";
    case WireError::kBadAux: return "bad-aux";
    case WireError::kBadReserved: return "bad-reserved";
    case WireError::kUnencodable: return "unencodable";
  }
  return "unknown";
}

WireError encode_message(const proto::Message& m, std::uint16_t epoch,
                         std::vector<std::uint8_t>* out) {
  out->clear();
  const WireError e = std::visit(EncodeVisitor{out, epoch}, m);
  if (e != WireError::kOk) {
    out->clear();
    return e;
  }
  assert(out->size() == proto::wire_size(m) - kIpUdpHeader &&
         "encoded datagram must fill the sim's wire-size budget exactly");
  return WireError::kOk;
}

DecodeResult decode_message(const std::uint8_t* data, std::size_t len,
                            std::uint16_t epoch) {
  DecodeResult result;
  if (len < kHeaderBytes) {
    result.error = WireError::kTruncated;
    return result;
  }
  if (get_u16(data) != kMagic) {
    result.error = WireError::kBadMagic;
    return result;
  }
  if (data[2] != kVersion) {
    result.error = WireError::kBadVersion;
    return result;
  }
  if (get_u16(data + 4) != epoch) {
    result.error = WireError::kBadEpoch;
    return result;
  }
  if (data[3] >= kNumTags) {
    result.error = WireError::kBadTag;
    return result;
  }
  const auto tag = static_cast<Tag>(data[3]);
  const std::uint16_t aux = get_u16(data + 6);
  const std::uint8_t* body = data + kHeaderBytes;
  const std::size_t body_len = len - kHeaderBytes;
  switch (tag) {
    case Tag::kChannelListQuery:
      result.error =
          decode_channel_list_query(body, body_len, aux, &result.message);
      break;
    case Tag::kChannelListReply:
      result.error =
          decode_channel_list_reply(body, body_len, aux, &result.message);
      break;
    case Tag::kJoinQuery:
      result.error = decode_join_query(body, body_len, aux, &result.message);
      break;
    case Tag::kJoinReply:
      result.error = decode_join_reply(body, body_len, aux, &result.message);
      break;
    case Tag::kTrackerQuery:
      result.error =
          decode_tracker_query(body, body_len, aux, &result.message);
      break;
    case Tag::kTrackerReply:
      result.error =
          decode_tracker_reply(body, body_len, aux, &result.message);
      break;
    case Tag::kPeerListQuery:
      result.error =
          decode_peer_list_query(body, body_len, aux, &result.message);
      break;
    case Tag::kPeerListReply:
      result.error =
          decode_peer_list_reply(body, body_len, aux, &result.message);
      break;
    case Tag::kConnectQuery:
      result.error =
          decode_connect_query(body, body_len, aux, &result.message);
      break;
    case Tag::kConnectReply:
      result.error =
          decode_connect_reply(body, body_len, aux, &result.message);
      break;
    case Tag::kBufferMapAnnounce:
      result.error =
          decode_buffer_map_announce(body, body_len, aux, &result.message);
      break;
    case Tag::kDataQuery:
      result.error = decode_data_query(body, body_len, aux, &result.message);
      break;
    case Tag::kDataReply:
      result.error = decode_data_reply(body, body_len, aux, &result.message);
      break;
    case Tag::kGoodbye:
      result.error = decode_goodbye(body, body_len, aux, &result.message);
      break;
  }
  if (result.error == WireError::kOk) {
    assert(proto::wire_size(result.message) == len + kIpUdpHeader &&
           "decoded message must charge the same wire bytes it arrived in");
  }
  return result;
}

}  // namespace ppsim::wire
