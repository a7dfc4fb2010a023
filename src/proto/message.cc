#include "proto/message.h"

#include <utility>

namespace ppsim::proto {

namespace {

constexpr std::uint64_t kIpUdpHeader = 28;

struct SizeVisitor {
  std::uint64_t operator()(const ChannelListQuery&) const { return 8; }
  std::uint64_t operator()(const ChannelListReply& m) const {
    return 8 + 4 * m.channels.size();
  }
  std::uint64_t operator()(const JoinQuery&) const { return 12; }
  std::uint64_t operator()(const JoinReply& m) const {
    return 16 + 6 * m.trackers.size();
  }
  std::uint64_t operator()(const TrackerQuery&) const { return 16; }
  std::uint64_t operator()(const TrackerReply& m) const {
    return 12 + 6 * m.peers.size();
  }
  std::uint64_t operator()(const PeerListQuery& m) const {
    return 12 + 6 * m.my_peers.size();
  }
  std::uint64_t operator()(const PeerListReply& m) const {
    return 12 + 6 * m.peers.size();
  }
  std::uint64_t operator()(const ConnectQuery&) const { return 16; }
  std::uint64_t operator()(const ConnectReply& m) const {
    return 20 + (m.map.have.size() + 7) / 8;
  }
  std::uint64_t operator()(const BufferMapAnnounce& m) const {
    return 20 + (m.map.have.size() + 7) / 8;
  }
  std::uint64_t operator()(const DataQuery&) const { return 20; }
  std::uint64_t operator()(const DataReply& m) const {
    // One header per sub-piece packet the chunk is carried in. In 64 bits:
    // a decoded reply may claim any 32-bit payload.
    return std::uint64_t{m.payload_bytes} + 12 +
           kIpUdpHeader * (m.subpieces > 0 ? m.subpieces - 1 : 0);
  }
  std::uint64_t operator()(const Goodbye&) const { return 12; }
};

/// Default-constructs the first type of the variant, in index order, for
/// which `match(index, kName)` holds.
template <typename Match>
std::optional<Message> first_match(Match match) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    std::optional<Message> out;
    ((match(I, std::variant_alternative_t<I, Message>::kName) &&
      (out.emplace(std::in_place_index<I>), true)) ||
     ...);
    return out;
  }(std::make_index_sequence<std::variant_size_v<Message>>{});
}

}  // namespace

std::uint64_t wire_size(const Message& m) {
  return kIpUdpHeader + std::visit(SizeVisitor{}, m);
}

std::string_view message_name(const Message& m) {
  return std::visit([](const auto& msg) { return msg.kName; }, m);
}

std::optional<Message> message_at(std::size_t index) {
  return first_match(
      [&](std::size_t i, std::string_view) { return i == index; });
}

std::optional<Message> message_named(std::string_view name) {
  return first_match(
      [&](std::size_t, std::string_view n) { return n == name; });
}

}  // namespace ppsim::proto
