#include "proto/tracker.h"

#include <algorithm>
#include <utility>

#include "sim/trace.h"

namespace ppsim::proto {

TrackerServer::TrackerServer(sim::Simulator& simulator, PeerTransport& network,
                             const HostIdentity& identity, sim::Rng rng,
                             Config config)
    : simulator_(simulator),
      network_(network),
      identity_(identity),
      rng_(rng),
      config_(config) {
  network_.attach(identity_.ip, identity_.isp, identity_.category,
                  identity_.profile,
                  [this](const PeerTransport::Delivery& d) { handle(d); });
}

TrackerServer::~TrackerServer() { network_.detach(identity_.ip); }

void TrackerServer::refresh(ChannelId channel, net::IpAddress member) {
  auto& entries = members_[channel];
  for (auto& e : entries) {
    if (e.ip == member) {
      e.last_seen = simulator_.now();
      return;
    }
  }
  entries.push_back(Entry{member, simulator_.now()});
}

void TrackerServer::expire(ChannelId channel) {
  auto it = members_.find(channel);
  if (it == members_.end()) return;
  const sim::Time cutoff = simulator_.now() - kEntryTtl;
  std::erase_if(it->second,
                [cutoff](const Entry& e) { return e.last_seen < cutoff; });
}

std::size_t TrackerServer::member_count(ChannelId channel) {
  expire(channel);
  auto it = members_.find(channel);
  return it == members_.end() ? 0 : it->second.size();
}

void TrackerServer::handle(const PeerTransport::Delivery& delivery) {
  const auto* query = std::get_if<TrackerQuery>(&delivery.payload);
  if (query == nullptr) return;  // trackers speak only the tracker protocol
  if (dark_) return;             // fault window: unreachable, query lost

  const ChannelId channel = query->channel;
  expire(channel);

  // Sample *before* registering the requester so a client is never told
  // about itself; registration then keeps it discoverable by others.
  TrackerReply reply;
  reply.channel = channel;
  auto it = members_.find(channel);
  if (it != members_.end()) {
    std::vector<net::IpAddress> candidates;
    candidates.reserve(it->second.size());
    for (const auto& e : it->second)
      if (e.ip != delivery.from) candidates.push_back(e.ip);
    const auto cap = static_cast<std::size_t>(config_.max_reply_peers);
    if (config_.locality_db == nullptr) {
      // The measured PPLive behaviour: a plain uniform sample.
      reply.peers = rng_.sample(std::move(candidates), cap);
    } else {
      // ISP-aware variant: same-ISP members first, random within tiers.
      const net::IspCategory own =
          config_.locality_db->category_or_foreign(delivery.from);
      std::vector<net::IpAddress> same, other;
      for (const auto& ip : candidates) {
        (config_.locality_db->category_or_foreign(ip) == own ? same : other)
            .push_back(ip);
      }
      reply.peers = rng_.sample(std::move(same), cap);
      if (reply.peers.size() < cap) {
        auto fill = rng_.sample(std::move(other), cap - reply.peers.size());
        reply.peers.insert(reply.peers.end(), fill.begin(), fill.end());
      }
    }
  }
  refresh(channel, delivery.from);
  ++queries_served_;
  reply.span = SpanContext{simulator_.allocate_span_id(), query->span.id};
  if (sim::TraceSink* trace = simulator_.trace_sink()) {
    sim::TraceEvent ev(simulator_.now(), "tracker_serve");
    ev.field("tracker", identity_.ip.to_string())
        .field("to", delivery.from.to_string())
        .field("channel", static_cast<std::uint64_t>(channel))
        .field("peers", static_cast<std::uint64_t>(reply.peers.size()));
    if (simulator_.causal_tracing())
      ev.field("span", reply.span.id).field("parent", reply.span.parent);
    trace->write(ev);
  }

  const std::uint64_t bytes = wire_size(Message{reply});
  simulator_.schedule(
      kProcessingDelay,
      [this, to = delivery.from, reply = std::move(reply), bytes]() mutable {
        network_.send(identity_.ip, to, Message{std::move(reply)}, bytes);
      },
      "tracker.serve");
}

}  // namespace ppsim::proto
