#pragma once

#include <cstdint>
#include <vector>

#include "net/ip.h"
#include "proto/channel.h"
#include "proto/chunk_store.h"
#include "proto/host.h"
#include "proto/message.h"
#include "proto/tracker.h"
#include "sim/flat_map.h"
#include "sim/simulator.h"

namespace ppsim::proto {

/// The channel's origin ("playlink" target): produces one chunk per chunk
/// duration, serves data requests, answers gossip queries with its
/// connected peers, and keeps itself registered with the trackers so new
/// joiners can always find at least one serving node.
///
/// Its upload link is deliberately modest relative to the swarm's demand —
/// PPLive channels are overwhelmingly peer-served, which is precisely why
/// *peer* selection determines the traffic matrix the paper measures.
///
/// Each served data request emits a "source_serve" event to the
/// simulator's trace sink; under causal tracing every reply carries a span
/// id parented on the incoming message's span, and the event gains
/// span/parent fields.
class StreamSource {
 public:
  static constexpr int kMaxNeighbors = 48;
  static constexpr int kMaxListSize = 60;
  static constexpr sim::Time kAnnouncePeriod = sim::Time::seconds(5);
  static constexpr sim::Time kTrackerRefresh = sim::Time::seconds(60);
  static constexpr sim::Time kProcessingDelay = sim::Time::millis(2);
  static constexpr std::uint32_t kChunkRetention = 512;

  StreamSource(sim::Simulator& simulator, PeerTransport& network,
               const HostIdentity& identity, ChannelSpec channel,
               std::vector<net::IpAddress> trackers);
  ~StreamSource();

  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  /// Starts chunk production and tracker registration.
  void start();
  /// Stops producing (the channel "ends"); the host stays attached.
  void stop();

  net::IpAddress ip() const { return identity_.ip; }
  ChunkSeq live_edge() const { return store_.highest(); }
  std::uint64_t chunks_produced() const { return chunks_produced_; }
  std::uint64_t requests_served() const { return requests_served_; }
  std::size_t neighbor_count() const { return neighbors_.size(); }

 private:
  void handle(const PeerTransport::Delivery& delivery);
  void produce_chunk();
  void announce_maps();
  void refresh_trackers();
  void send(net::IpAddress to, Message m);
  void touch_neighbor(net::IpAddress ip);

  sim::Simulator& simulator_;
  PeerTransport& network_;
  HostIdentity identity_;
  ChannelSpec channel_;
  std::vector<net::IpAddress> trackers_;

  bool running_ = false;
  ChunkStore store_;
  std::uint64_t chunks_produced_ = 0;
  std::uint64_t requests_served_ = 0;
  // Peers that connected to the source (it serves them like any neighbor).
  struct Neighbor {
    sim::Time last_seen;
  };
  // Ordered so buffer-map announcements and gossip replies go out in a
  // deterministic (IP-sorted) order regardless of hash internals.
  sim::FlatMap<net::IpAddress, Neighbor> neighbors_;
};

}  // namespace ppsim::proto
