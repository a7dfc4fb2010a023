#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "net/ip.h"
#include "proto/channel.h"
#include "proto/chunk_store.h"

namespace ppsim::proto {

/// Wire messages of the simulated protocol, modeled after the PPLive 1.9
/// exchanges the paper reverse-engineers (Figure 1, steps 1-8):
/// bootstrap/channel discovery, tracker membership, neighbor-referral
/// peer-list gossip, connection handshake, buffer maps, and chunk data.
///
/// Each message struct names itself (`kName`, also the capture format's
/// type token) and lists its payload fields in wire order (`fields(m)`, a
/// tuple of references into `m`). The wire codec and the capture trace
/// format both read and write a message as that list, with one reader and
/// one writer per field type, so a field added to the list reaches both.
/// `span` is trace metadata and is never listed. ppsim-audit's
/// `message-fields` check holds each list to its struct's data members.

/// Causal-tracing context carried by every protocol message. `id` names the
/// operation this message belongs to; `parent` names the operation that
/// caused it (the received message or local action it reacted to). Ids come
/// from Simulator::allocate_span_id() — a deterministic monotonic counter —
/// and are only assigned when causal tracing is enabled; both stay 0
/// otherwise. Spans are trace metadata, not wire payload: they do not
/// contribute to wire_size() and never influence protocol behavior.
struct SpanContext {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Step (1): client asks the bootstrap/channel server for active channels.
struct ChannelListQuery {
  static constexpr std::string_view kName = "ChannelListQuery";
  SpanContext span{};
  static auto fields(auto&) { return std::tie(); }
};

/// Step (2): the channel list.
struct ChannelListReply {
  static constexpr std::string_view kName = "ChannelListReply";
  std::vector<ChannelId> channels;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channels); }
};

/// Step (3): client asks for a channel's playlink + tracker set.
struct JoinQuery {
  static constexpr std::string_view kName = "JoinQuery";
  ChannelId channel = 0;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel); }
};

/// Step (4): playlink (stream source) and one tracker per tracker group.
struct JoinReply {
  static constexpr std::string_view kName = "JoinReply";
  ChannelId channel = 0;
  net::IpAddress source;
  std::vector<net::IpAddress> trackers;
  SpanContext span{};
  static auto fields(auto& m) {
    return std::tie(m.channel, m.source, m.trackers);
  }
};

/// Client -> tracker: request active peers; also (re)announces the sender
/// as an active member of the channel.
struct TrackerQuery {
  static constexpr std::string_view kName = "TrackerQuery";
  ChannelId channel = 0;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel); }
};

/// Tracker -> client: random sample of active members (no locality logic;
/// the paper finds trackers act as plain databases of active peers).
struct TrackerReply {
  static constexpr std::string_view kName = "TrackerReply";
  ChannelId channel = 0;
  std::vector<net::IpAddress> peers;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel, m.peers); }
};

/// Steps (5)/(7): gossip query to a connected neighbor. The requester
/// encloses its own peer list, as observed in PPLive.
struct PeerListQuery {
  static constexpr std::string_view kName = "PeerListQuery";
  ChannelId channel = 0;
  std::vector<net::IpAddress> my_peers;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel, m.my_peers); }
};

/// Steps (6)/(8): up to 60 of the replier's recently-connected neighbors.
struct PeerListReply {
  static constexpr std::string_view kName = "PeerListReply";
  ChannelId channel = 0;
  std::vector<net::IpAddress> peers;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel, m.peers); }
};

/// Connection handshake.
struct ConnectQuery {
  static constexpr std::string_view kName = "ConnectQuery";
  ChannelId channel = 0;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel); }
};

struct ConnectReply {
  static constexpr std::string_view kName = "ConnectReply";
  ChannelId channel = 0;
  bool accepted = false;
  BufferMap map;  // replier's availability, so data can flow immediately
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel, m.accepted, m.map); }
};

/// Periodic availability announcement to connected neighbors.
struct BufferMapAnnounce {
  static constexpr std::string_view kName = "BufferMapAnnounce";
  ChannelId channel = 0;
  BufferMap map;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel, m.map); }
};

/// Request for one chunk (carried on the wire as subpieces_per_chunk
/// sub-piece requests; accounted as one transmission).
struct DataQuery {
  static constexpr std::string_view kName = "DataQuery";
  ChannelId channel = 0;
  ChunkSeq chunk = 0;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel, m.chunk); }
};

struct DataReply {
  static constexpr std::string_view kName = "DataReply";
  ChannelId channel = 0;
  ChunkSeq chunk = 0;
  std::uint32_t subpieces = 0;
  std::uint32_t payload_bytes = 0;
  SpanContext span{};
  static auto fields(auto& m) {
    return std::tie(m.channel, m.chunk, m.subpieces, m.payload_bytes);
  }
};

/// Graceful departure notice to neighbors.
struct Goodbye {
  static constexpr std::string_view kName = "Goodbye";
  ChannelId channel = 0;
  SpanContext span{};
  static auto fields(auto& m) { return std::tie(m.channel); }
};

using Message =
    std::variant<ChannelListQuery, ChannelListReply, JoinQuery, JoinReply,
                 TrackerQuery, TrackerReply, PeerListQuery, PeerListReply,
                 ConnectQuery, ConnectReply, BufferMapAnnounce, DataQuery,
                 DataReply, Goodbye>;

/// Bytes this message occupies on the wire (IP+UDP header plus a
/// protocol-shaped payload estimate). Drives access-link serialization.
std::uint64_t wire_size(const Message& m);

/// Short name for traces and debugging, e.g. "DataQuery": the kName of
/// the message's type.
std::string_view message_name(const Message& m);

/// A default-constructed Message of the type at variant index `index` (the
/// wire tag), or of the type whose kName is `name` (the capture type
/// token); nullopt when no type matches.
std::optional<Message> message_at(std::size_t index);
std::optional<Message> message_named(std::string_view name);

}  // namespace ppsim::proto
