#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "proto/message.h"

namespace ppsim::wire {

/// ppsim-wire-v1: the versioned binary packet format carried in each UDP
/// datagram of the real-wire deployment mode (docs/WIRE.md has the byte-
/// level table). Every datagram is
///
///   header (8 bytes, big-endian)          body
///   +-------+-----+-----+-------+-----+   +--------------+--------------+
///   | magic | ver | tag | epoch | aux |   | fields(m)... | zero padding |
///   |  u16  | u8  | u8  |  u16  | u16 |   |              |              |
///   +-------+-----+-----+-------+-----+   +--------------+--------------+
///
/// The tag is the message's index in the proto::Message variant, and the
/// body is the message's field list (proto/message.h) in order, one
/// encoding per field type. Zero padding then brings the datagram to
/// *exactly* `proto::wire_size(m) - kIpUdpHeader` bytes: the sim's
/// wire-size model already budgets the 28-byte IP+UDP header, so the
/// datagram fills the remaining payload budget byte-for-byte. That identity
/// is the sim/wire contract — a packet on the real wire occupies the same
/// link bytes the simulator charged for it — and the decoder requires it.
/// `SpanContext` is trace metadata, never encoded; decoded messages always
/// carry a zero span.
inline constexpr std::uint16_t kMagic = 0x5057;  // "PW"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
/// IP+UDP header bytes proto::wire_size() budgets on top of the payload.
inline constexpr std::uint64_t kIpUdpHeader = 28;
/// Largest datagram the transport will encode or accept (a DataReply for a
/// jumbo chunk still fits far below this).
inline constexpr std::size_t kMaxDatagram = 60000;

/// Decode (and one encode) failure codes. Distinct per failure shape so
/// the transport's RxErrors counters and the fuzz tests can tell a short
/// read from a foreign packet from a stale-version packet.
enum class WireError : std::uint8_t {
  kOk = 0,
  kTruncated = 1,      // shorter than the header or the body's fixed part
  kBadMagic = 2,       // first two bytes are not kMagic
  kBadVersion = 3,     // version byte != kVersion
  kBadEpoch = 4,       // channel epoch does not match this deployment
  kBadTag = 5,         // tag beyond the variant list
  kBadLength = 6,      // body length inconsistent with the tag's layout
  kBadAux = 7,         // aux bits set that the tag does not define
  kBadReserved = 8,    // reserved/padding bytes not zero
  kUnencodable = 9,    // encode only: message shape has no v1 encoding
};

std::string_view wire_error_name(WireError e);

/// Encodes `m` into a ppsim-wire-v1 datagram appended to *out (cleared
/// first). Returns kOk, or kUnencodable for shapes the format cannot carry:
/// a budget smaller than the fields (a DataReply with too few
/// payload_bytes) or larger than kMaxDatagram; the protocol produces
/// neither. On kOk the datagram length equals
/// proto::wire_size(m) - kIpUdpHeader.
WireError encode_message(const proto::Message& m, std::uint16_t epoch,
                         std::vector<std::uint8_t>* out);

struct DecodeResult {
  WireError error = WireError::kOk;
  proto::Message message;  // value only meaningful when error == kOk
};

/// Decodes one datagram. Never throws and never reads out of bounds for
/// any input (the fuzz tests pin this); every rejection carries a distinct
/// WireError. On success proto::wire_size(message) equals
/// len + kIpUdpHeader, so a decoded message is always one the sim would
/// have charged identically for.
DecodeResult decode_message(const std::uint8_t* data, std::size_t len,
                            std::uint16_t epoch);

}  // namespace ppsim::wire
