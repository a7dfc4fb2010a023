#include "proto/bootstrap.h"

#include "sim/trace.h"

namespace ppsim::proto {

BootstrapServer::BootstrapServer(sim::Simulator& simulator,
                                 PeerTransport& network,
                                 const HostIdentity& identity)
    : simulator_(simulator), network_(network), identity_(identity) {
  network_.attach(identity_.ip, identity_.isp, identity_.category,
                  identity_.profile,
                  [this](const PeerTransport::Delivery& d) { handle(d); });
}

BootstrapServer::~BootstrapServer() { network_.detach(identity_.ip); }

void BootstrapServer::register_channel(ChannelEntry entry) {
  channels_[entry.channel] = std::move(entry);
}

void BootstrapServer::reply(net::IpAddress to, Message m) {
  const std::uint64_t bytes = wire_size(m);
  simulator_.schedule(kProcessingDelay,
                      [this, to, m = std::move(m), bytes]() mutable {
                        network_.send(identity_.ip, to, std::move(m), bytes);
                      });
}

void BootstrapServer::handle(const PeerTransport::Delivery& delivery) {
  if (dark_) return;  // fault window: unreachable, request lost
  if (std::holds_alternative<ChannelListQuery>(delivery.payload)) {
    ChannelListReply r;
    r.channels.reserve(channels_.size());
    for (const auto& [id, entry] : channels_) r.channels.push_back(id);
    reply(delivery.from, Message{std::move(r)});
    return;
  }
  if (const auto* join = std::get_if<JoinQuery>(&delivery.payload)) {
    auto it = channels_.find(join->channel);
    if (it == channels_.end()) return;  // unknown channel: silently ignored
    const ChannelEntry& entry = it->second;
    JoinReply r;
    r.channel = entry.channel;
    r.source = entry.source;
    // One tracker per group, rotated so server load spreads.
    const std::uint64_t rot = rotation_++;
    for (const auto& group : entry.tracker_groups) {
      if (group.empty()) continue;
      r.trackers.push_back(group[rot % group.size()]);
    }
    ++joins_served_;
    r.span = SpanContext{simulator_.allocate_span_id(), join->span.id};
    sim::TraceSink* trace = simulator_.trace_sink();
    if (trace != nullptr && simulator_.causal_tracing()) {
      sim::TraceEvent ev(simulator_.now(), "bootstrap_serve");
      ev.field("bootstrap", identity_.ip.to_string())
          .field("to", delivery.from.to_string())
          .field("channel", static_cast<std::uint64_t>(r.channel))
          .field("trackers", static_cast<std::uint64_t>(r.trackers.size()))
          .field("span", r.span.id)
          .field("parent", r.span.parent);
      trace->write(ev);
    }
    reply(delivery.from, Message{std::move(r)});
  }
}

}  // namespace ppsim::proto
