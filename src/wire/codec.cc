#include "wire/codec.h"

#include <cstring>
#include <optional>
#include <tuple>
#include <type_traits>

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

/// aux bits a field type defines: bits 0-2 hold the trailing-bit count of a
/// bitmap's last byte (have.size() % 8), bit 15 holds a bool. A message may
/// set only the bits of its own field types; all others must be zero.
template <typename Field>
constexpr std::uint16_t kAuxBits = 0;
template <>
constexpr std::uint16_t kAuxBits<bool> = 0x8000;
template <>
constexpr std::uint16_t kAuxBits<proto::BufferMap> = 0x0007;

/// One writer per field type, appending the field in wire order.
struct FieldWriter {
  std::vector<std::uint8_t>* out;
  std::uint16_t aux = 0;

  void operator()(std::uint32_t v) { put_u32(out, v); }
  void operator()(std::uint64_t v) { put_u64(out, v); }
  void operator()(bool v) {
    if (v) aux |= kAuxBits<bool>;
  }
  void operator()(net::IpAddress ip) { put_u32(out, ip.value()); }
  void operator()(const std::vector<proto::ChannelId>& channels) {
    for (const proto::ChannelId c : channels) put_u32(out, c);
  }
  /// A listed address travels as 6 bytes — IPv4 + a 2-byte port slot, the
  /// shape real peer-list entries have. The deployment binds every node to
  /// one shared port (docs/WIRE.md), so the slot is written zero and must
  /// read zero.
  void operator()(const std::vector<net::IpAddress>& ips) {
    for (const net::IpAddress ip : ips) {
      put_u32(out, ip.value());
      put_u16(out, 0);
    }
  }
  /// Base, then the bits MSB-first in ceil(n/8) bytes.
  void operator()(const proto::BufferMap& map) {
    aux |= static_cast<std::uint16_t>(map.have.size() % 8);
    put_u64(out, map.base);
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < map.have.size(); ++i) {
      if (map.have[i]) acc |= static_cast<std::uint8_t>(1u << (7 - i % 8));
      if (i % 8 == 7) {
        out->push_back(acc);
        acc = 0;
      }
    }
    if (map.have.size() % 8 != 0) out->push_back(acc);
  }
};

/// One reader per field type, consuming the body in wire order. The first
/// failure sticks, and the fields after it are left unread.
struct FieldReader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  std::uint16_t aux;
  WireError error = WireError::kOk;

  /// The next `n` bytes, or nullptr when an error is pending or the body
  /// is too short (kTruncated).
  const std::uint8_t* take(std::size_t n) {
    if (error != WireError::kOk) return nullptr;
    if (static_cast<std::size_t>(end - p) < n) {
      error = WireError::kTruncated;
      return nullptr;
    }
    const std::uint8_t* at = p;
    p += n;
    return at;
  }

  /// How many `size`-byte entries fill the rest of the body: a list is
  /// always the last field of its message.
  std::size_t entries(std::size_t size) {
    if (error != WireError::kOk) return 0;
    const auto left = static_cast<std::size_t>(end - p);
    if (left % size != 0) error = WireError::kBadLength;
    return error == WireError::kOk ? left / size : 0;
  }

  void operator()(std::uint32_t& v) {
    if (const std::uint8_t* b = take(4)) v = get_u32(b);
  }
  void operator()(std::uint64_t& v) {
    if (const std::uint8_t* b = take(8)) v = get_u64(b);
  }
  void operator()(bool& v) { v = (aux & kAuxBits<bool>) != 0; }
  void operator()(net::IpAddress& ip) {
    if (const std::uint8_t* b = take(4)) ip = net::IpAddress(get_u32(b));
  }
  void operator()(std::vector<proto::ChannelId>& channels) {
    const std::size_t n = entries(4);
    channels.reserve(n);
    for (std::size_t i = 0; i < n; ++i) channels.push_back(get_u32(take(4)));
  }
  void operator()(std::vector<net::IpAddress>& ips) {
    const std::size_t n = entries(6);
    ips.reserve(n);
    for (std::size_t i = 0; i < n && error == WireError::kOk; ++i) {
      const std::uint8_t* b = take(6);
      if (get_u16(b + 4) != 0) error = WireError::kBadReserved;
      ips.push_back(net::IpAddress(get_u32(b)));
    }
  }
  void operator()(proto::BufferMap& map) {
    const std::uint8_t* b = take(8);
    if (b == nullptr) return;
    map.base = get_u64(b);
    const std::size_t bytes = static_cast<std::size_t>(end - p);
    const std::size_t trailing = aux & kAuxBits<proto::BufferMap>;
    if (bytes == 0) {
      if (trailing != 0) error = WireError::kBadLength;
      return;
    }
    const std::uint8_t* bits = take(bytes);
    const std::size_t last = trailing == 0 ? 8 : trailing;  // bits used
    const std::size_t n = (bytes - 1) * 8 + last;
    map.have.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      map.have.push_back((bits[i / 8] >> (7 - i % 8)) & 1u);
    // The unused low-order bits of the last byte are padding.
    if ((bits[bytes - 1] & (0xFFu >> last)) != 0)
      error = WireError::kBadReserved;
  }
};

/// True when every byte of [p, end) is zero, read a word at a time.
bool all_zero(const std::uint8_t* p, const std::uint8_t* end) {
  std::uint64_t acc = 0;
  for (; end - p >= 8; p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    acc |= word;
  }
  for (; p < end; ++p) acc |= *p;
  return acc == 0;
}

WireError decode_into(const std::uint8_t* data, std::size_t len,
                      std::uint16_t epoch, proto::Message* m) {
  if (len < kHeaderBytes) return WireError::kTruncated;
  if (get_u16(data) != kMagic) return WireError::kBadMagic;
  if (data[2] != kVersion) return WireError::kBadVersion;
  if (get_u16(data + 4) != epoch) return WireError::kBadEpoch;
  std::optional<proto::Message> fresh = proto::message_at(data[3]);
  if (!fresh) return WireError::kBadTag;
  *m = std::move(*fresh);
  FieldReader in{data + kHeaderBytes, data + len, get_u16(data + 6)};
  std::visit(
      [&](auto& msg) {
        std::apply(
            [&](auto&... field) {
              const int defined =
                  (kAuxBits<std::remove_cvref_t<decltype(field)>> | ... | 0);
              if ((in.aux & ~defined) != 0) in.error = WireError::kBadAux;
              (in(field), ...);
            },
            msg.fields(msg));
      },
      *m);
  if (in.error != WireError::kOk) return in.error;
  // After the fields, zero padding fills the message's wire-size budget.
  if (proto::wire_size(*m) - kIpUdpHeader != len) return WireError::kBadLength;
  return all_zero(in.p, in.end) ? WireError::kOk : WireError::kBadReserved;
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
  const std::uint64_t budget = proto::wire_size(m) - kIpUdpHeader;
  if (budget > kMaxDatagram) return WireError::kUnencodable;
  put_u16(out, kMagic);
  out->push_back(kVersion);
  out->push_back(static_cast<std::uint8_t>(m.index()));
  put_u16(out, epoch);
  put_u16(out, 0);  // aux, known once the fields are written
  FieldWriter w{out};
  std::visit(
      [&](const auto& msg) {
        std::apply([&](const auto&... field) { (w(field), ...); },
                   msg.fields(msg));
      },
      m);
  // A budget below the fields (a DataReply with payload_bytes < 16 and at
  // most one sub-piece, never produced by the protocol) has no encoding.
  if (out->size() > budget) {
    out->clear();
    return WireError::kUnencodable;
  }
  (*out)[6] = static_cast<std::uint8_t>(w.aux >> 8);
  (*out)[7] = static_cast<std::uint8_t>(w.aux);
  out->resize(static_cast<std::size_t>(budget), 0);
  return WireError::kOk;
}

DecodeResult decode_message(const std::uint8_t* data, std::size_t len,
                            std::uint16_t epoch) {
  DecodeResult result;
  result.error = decode_into(data, len, epoch, &result.message);
  return result;
}

}  // namespace ppsim::wire
