#include "proto/source.h"

#include <algorithm>

#include "sim/trace.h"

namespace ppsim::proto {

StreamSource::StreamSource(sim::Simulator& simulator, PeerTransport& network,
                           const HostIdentity& identity, ChannelSpec channel,
                           std::vector<net::IpAddress> trackers)
    : simulator_(simulator),
      network_(network),
      identity_(identity),
      channel_(std::move(channel)),
      trackers_(std::move(trackers)),
      store_(kChunkRetention) {
  network_.attach(identity_.ip, identity_.isp, identity_.category,
                  identity_.profile,
                  [this](const PeerTransport::Delivery& d) { handle(d); });
}

StreamSource::~StreamSource() { network_.detach(identity_.ip); }

void StreamSource::start() {
  if (running_) return;
  running_ = true;
  produce_chunk();  // chunk 1 exists immediately; 0 is reserved as "none"
  schedule_periodic(simulator_, kAnnouncePeriod,
                    [this] {
                      if (running_) announce_maps();
                      return running_;
                    },
                    "source.announce");
  refresh_trackers();
  schedule_periodic(simulator_, kTrackerRefresh,
                    [this] {
                      if (running_) refresh_trackers();
                      return running_;
                    },
                    "source.tracker");
}

void StreamSource::stop() { running_ = false; }

void StreamSource::send(net::IpAddress to, Message m) {
  const std::uint64_t bytes = wire_size(m);
  simulator_.schedule(
      kProcessingDelay,
      [this, to, m = std::move(m), bytes]() mutable {
        network_.send(identity_.ip, to, std::move(m), bytes);
      },
      "source.send");
}

void StreamSource::produce_chunk() {
  if (!running_) return;
  ++chunks_produced_;
  store_.insert(chunks_produced_);
  simulator_.schedule(channel_.chunk_duration(), [this] { produce_chunk(); },
                      "source.produce");
}

void StreamSource::announce_maps() {
  // Drop neighbors that have gone quiet so the list reflects live peers.
  const sim::Time cutoff = simulator_.now() - sim::Time::seconds(90);
  neighbors_.erase_if(
      [cutoff](const auto& kv) { return kv.second.last_seen < cutoff; });
  if (store_.empty()) return;
  BufferMapAnnounce ann{channel_.id, store_.advertised()};
  for (const auto& [ip, nb] : neighbors_) {
    send(ip, Message{ann});
  }
}

void StreamSource::refresh_trackers() {
  for (const auto& tracker : trackers_) {
    send(tracker, Message{TrackerQuery{channel_.id}});
  }
}

void StreamSource::touch_neighbor(net::IpAddress ip) {
  auto it = neighbors_.find(ip);
  if (it != neighbors_.end()) it->second.last_seen = simulator_.now();
}

void StreamSource::handle(const PeerTransport::Delivery& delivery) {
  const net::IpAddress from = delivery.from;

  if (const auto* connect = std::get_if<ConnectQuery>(&delivery.payload)) {
    if (connect->channel != channel_.id) return;
    const bool accept =
        neighbors_.contains(from) ||
        neighbors_.size() < static_cast<std::size_t>(kMaxNeighbors);
    if (accept) neighbors_[from] = Neighbor{simulator_.now()};
    ConnectReply r;
    r.channel = channel_.id;
    r.accepted = accept;
    if (accept) r.map = store_.advertised();
    r.span = SpanContext{simulator_.allocate_span_id(), connect->span.id};
    send(from, Message{std::move(r)});
    return;
  }

  if (const auto* q = std::get_if<PeerListQuery>(&delivery.payload)) {
    if (q->channel != channel_.id) return;
    touch_neighbor(from);
    PeerListReply r;
    r.channel = channel_.id;
    for (const auto& [ip, nb] : neighbors_) {
      if (ip == from) continue;
      r.peers.push_back(ip);
      if (r.peers.size() >= static_cast<std::size_t>(kMaxListSize))
        break;
    }
    r.span = SpanContext{simulator_.allocate_span_id(), q->span.id};
    send(from, Message{std::move(r)});
    return;
  }

  if (const auto* dq = std::get_if<DataQuery>(&delivery.payload)) {
    if (dq->channel != channel_.id) return;
    touch_neighbor(from);
    if (!store_.has(dq->chunk)) return;  // too old or not yet produced
    ++requests_served_;
    DataReply r{channel_.id, dq->chunk, channel_.subpieces_per_chunk,
                channel_.chunk_bytes()};
    r.span = SpanContext{simulator_.allocate_span_id(), dq->span.id};
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "source_serve");
      ev.field("source", identity_.ip.to_string())
          .field("to", from.to_string())
          .field("chunk", static_cast<std::uint64_t>(dq->chunk))
          .field("bytes", channel_.chunk_bytes());
      if (simulator_.causal_tracing())
        ev.field("span", r.span.id).field("parent", r.span.parent);
      trace->write(ev);
    }
    send(from, Message{r});
    return;
  }

  if (std::holds_alternative<Goodbye>(delivery.payload)) {
    neighbors_.erase(from);
    return;
  }
}

}  // namespace ppsim::proto
