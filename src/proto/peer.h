#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "net/ip.h"
#include "proto/channel.h"
#include "proto/chunk_store.h"
#include "proto/counters.h"
#include "proto/host.h"
#include "proto/message.h"
#include "proto/peer_config.h"
#include "proto/selection.h"
#include "proto/tracker.h"
#include "sim/flat_map.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ppsim::proto {

/// A PPLive-style live streaming client.
///
/// Implements the join sequence and steady-state behaviour the paper
/// reverse-engineers (Section 2):
///
///  1. DNS + bootstrap: learn the channel's playlink (stream source) and
///     one tracker per tracker group.
///  2. Query trackers for initial peer lists; *connect to listed peers the
///     moment a list arrives*.
///  3. On each established connection, immediately ask the new neighbor for
///     its peer list, then start requesting data.
///  4. Gossip: every 20 s, probe neighbors for their peer lists (enclosing
///     our own); reply to such probes with up to 60 recently connected
///     neighbors.
///  5. Once playback is healthy, tracker queries decay to once per 5 min —
///     membership knowledge then flows almost entirely through neighbors.
///
/// No topology information is used anywhere. The ISP-level traffic locality
/// the paper measures *emerges* from (2)+(3): same-ISP peers answer faster,
/// first responders win the neighbor slots, and referral then compounds the
/// bias ("triangle construction").
///
/// Tracing follows the simulator (Simulator::set_tracing): protocol events
/// go to the run's trace sink; under causal tracing (docs/OBSERVABILITY.md)
/// messages carry span ids, events gain span/parent and referral fields,
/// and the startup milestones (join_reply, chunk_delivered, playback_start)
/// are emitted. Purely observational.
///
/// Lifetime: a Peer attaches to the network in its constructor and detaches
/// in leave() / destructor. Timer callbacks hold `this`, so a Peer must
/// outlive the simulator run (or be leave()d first and destroyed only after
/// the run completes — leave() makes all callbacks inert).
class Peer {
 public:
  Peer(sim::Simulator& simulator, PeerTransport& network,
       const HostIdentity& identity, ChannelSpec channel,
       net::IpAddress bootstrap, sim::Rng rng, PeerConfig config = {},
       std::unique_ptr<SelectionPolicy> policy = nullptr);
  ~Peer();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Starts the join sequence (DNS lookup, bootstrap contact, ...).
  void join();

  /// Leaves the swarm: notifies neighbors, detaches from the network, and
  /// neutralizes all pending timers. Idempotent.
  void leave();

  /// Crashes: detaches abruptly with no goodbyes — the fault-injection
  /// (churn burst) and power-failure departure path. Neighbors only find
  /// out via their own idle timeouts. Idempotent, same lifetime rules as
  /// leave().
  void crash();

  bool alive() const { return alive_; }
  net::IpAddress ip() const { return identity_.ip; }
  const HostIdentity& identity() const { return identity_; }
  const PeerCounters& counters() const { return counters_; }
  const PeerConfig& config() const { return config_; }

  std::size_t neighbor_count() const { return neighbors_.size(); }
  std::vector<net::IpAddress> neighbor_ips() const;

  /// Resilience introspection (not part of PeerCounters: these only move
  /// under injected faults, and the metrics export must stay byte-stable
  /// for fault-free runs).
  /// All-group tracker sweeps issued since the last tracker reply.
  int tracker_silent_rounds() const { return tracker_silent_rounds_; }
  /// Emergency neighbor re-acquisitions mounted after total isolation.
  std::uint64_t emergency_reacquires() const { return emergency_reacquires_; }
  std::size_t candidate_pool_size() const {
    return pool_fifo_.size() - pool_head_;
  }
  bool playback_started() const { return playback_started_; }
  ChunkSeq playback_position() const { return playback_next_; }
  ChunkSeq live_edge_estimate() const { return live_edge_; }
  const ChunkStore& store() const { return store_; }

  /// Measured latency estimate this client holds for a neighbor (EWMA of
  /// request->reply times), or a negative value if unknown.
  double neighbor_latency_estimate(net::IpAddress ip) const;

  /// Approximate heap footprint of this peer's dynamic state (neighbor
  /// table, candidate pool, pending-request maps, chunk store) for the
  /// resource probe's live-byte gauges: each vector-backed container counts
  /// its capacity times its element size. Not allocator-exact accounting —
  /// good enough to watch growth across peer counts, cheap enough to sum
  /// every sampling tick.
  std::size_t approx_live_bytes() const;

 private:
  struct Neighbor {
    sim::Time connected_at;
    sim::Time last_seen;
    /// Control-message round trip (handshake, peer-list replies): a clean
    /// proximity signal, used for neighborhood optimization — this is the
    /// "latency based" selection the paper infers.
    double rtt_s = 0.6;
    /// Data-request service latency (includes the remote's uplink
    /// serialization and queueing): used for request scheduling, so load
    /// and capacity steer the data plane.
    double service_s = 0.6;
    int in_flight = 0;
    BufferMap map;
    /// Causal tracing only (zero/empty otherwise): the handshake span that
    /// established this neighbor, and who referred it. Data requests to the
    /// neighbor are parented on intro_span, tying the data plane back to
    /// the referral that made it possible.
    std::uint64_t intro_span = 0;
    const char* intro_via = "";
    net::IpAddress introducer;
  };

  struct PendingData {
    net::IpAddress target;
    sim::Time sent_at;
  };

  // --- join sequence ---
  void contact_bootstrap();
  void on_join_reply(const JoinReply& r);
  void schedule_tracker_round();
  void query_trackers(bool all);

  // --- membership ---
  void learn_candidates(const std::vector<net::IpAddress>& ips,
                        bool from_tracker);
  void note_origins(const std::vector<net::IpAddress>& ips, const char* via,
                    net::IpAddress introducer, std::uint64_t span);
  void attempt_connections(const std::vector<net::IpAddress>& fresh);
  void topup_connections();
  void try_connect(const std::vector<net::IpAddress>& targets);
  void gossip_round();
  std::vector<net::IpAddress> my_peer_list() const;
  /// Sorted addresses choose() must skip: self, bootstrap, trackers,
  /// neighbors and pending handshakes. A view of `excluded_`, valid until
  /// the next call.
  std::span<const net::IpAddress> excluded_targets();
  /// The candidate pool, oldest first.
  std::span<const net::IpAddress> candidate_pool() const {
    return std::span<const net::IpAddress>(pool_fifo_).subspan(pool_head_);
  }
  void sweep_timeouts();
  void optimize_neighborhood();

  // --- data plane ---
  void request_tick();
  void playback_tick();
  void announce_buffer_maps();
  void maybe_start_playback();

  // --- plumbing ---
  void handle(const PeerTransport::Delivery& delivery);
  void send(net::IpAddress to, Message m, bool with_processing_delay = true);
  void add_neighbor(net::IpAddress ip, double initial_latency_s,
                    BufferMap map);
  void drop_neighbor(net::IpAddress ip, bool notify);

  sim::Simulator& simulator_;
  PeerTransport& network_;
  HostIdentity identity_;
  ChannelSpec channel_;
  net::IpAddress bootstrap_;
  sim::Rng rng_;
  PeerConfig config_;
  std::unique_ptr<SelectionPolicy> policy_;

  // --- causal-tracing state (populated only under causal tracing) ---
  /// How a candidate was introduced: the introducing message's span and the
  /// referrer, kept so the eventual ConnectQuery can be parented on it.
  /// First introduction wins — lineage answers "who told us about this peer
  /// first". Entries are evicted alongside the candidate pool.
  struct CandidateOrigin {
    std::uint64_t span = 0;
    net::IpAddress introducer;
    const char* via = "unknown";  // "bootstrap" | "tracker" | "gossip"
  };
  /// Origin snapshot taken when a handshake is launched, so the result
  /// event can report provenance even if the pool entry was evicted.
  struct PendingConnectSpan {
    std::uint64_t span = 0;  // the ConnectQuery's span
    CandidateOrigin origin;
  };
  sim::FlatMap<net::IpAddress, CandidateOrigin> origins_;
  sim::FlatMap<net::IpAddress, PendingConnectSpan> pending_connect_spans_;
  std::uint64_t join_span_ = 0;        // root span of this session
  std::uint64_t join_reply_span_ = 0;  // span of the accepted JoinReply

  bool alive_ = false;
  bool joined_ = false;

  net::IpAddress source_;
  std::vector<net::IpAddress> trackers_;

  // Candidate pool with FIFO eviction. pool_fifo_[pool_head_..] holds the
  // pool in arrival order: eviction advances the head, and the dead prefix
  // is compacted away once it reaches the pool limit. pool_sorted_ holds the
  // same addresses sorted, for the duplicate test.
  std::vector<net::IpAddress> pool_fifo_;
  std::size_t pool_head_ = 0;
  std::vector<net::IpAddress> pool_sorted_;
  // Scratch for excluded_targets(), reused so a connect decision does not
  // allocate.
  std::vector<net::IpAddress> excluded_;
  // Scratch for request_tick(), reused so a tick does not allocate: one
  // chunk's eligible holders and their weights, and each neighbor's latency
  // preference pow(1/lat, selectivity) in neighbors_ order (negative until
  // the tick first needs it).
  std::vector<net::IpAddress> holders_;
  std::vector<double> weights_;
  std::vector<double> preference_;

  // Sorted flat maps, not hash maps: every traversal below feeds either
  // message emission order or candidate/victim selection, and the
  // simulator's determinism contract requires those to be independent of
  // hash order (the ppsim-audit determinism pass enforces this; see
  // tools/lint/). FlatMap iterates in key order exactly as std::map does,
  // without a heap node per entry. Any insert or erase invalidates
  // iterators and references into the same map, so none is held across a
  // call that may change that map.
  sim::FlatMap<net::IpAddress, Neighbor> neighbors_;
  sim::FlatMap<net::IpAddress, sim::Time> pending_connects_;
  sim::FlatMap<ChunkSeq, PendingData> pending_data_;
  // Latest outstanding peer-list request per neighbor, for RTT sampling.
  sim::FlatMap<net::IpAddress, sim::Time> pending_list_;
  // Recently departed neighbors, still eligible for referral for a while
  // ("recently connected peers").
  std::deque<net::IpAddress> recent_neighbors_;
  // Last measured control-RTT of recently departed neighbors. Re-adding a
  // known peer seeds its estimate from here instead of the blind default,
  // so neighborhood optimization never ties a measured-near peer against a
  // far one at the default and evicts on the tie-break.
  sim::FlatMap<net::IpAddress, double> recent_rtt_;

  // Resilience state (see the matching knobs in peer_config.h): tracker-query
  // backoff while a tracker region is dark, and emergency re-acquisition
  // after a blackout empties the neighborhood.
  int tracker_silent_rounds_ = 0;
  bool had_neighbors_ = false;
  bool isolated_ = false;
  sim::Time isolated_since_;
  sim::Time last_reacquire_ = sim::Time::minutes(-60);
  std::uint64_t emergency_reacquires_ = 0;

  ChunkStore store_;
  // Highest chunk ever stored or advertised by a neighbor (handshake or
  // buffer-map announcement): a monotone max, folded in where those inputs
  // arrive. A neighbor leaving never lowers it.
  ChunkSeq live_edge_ = 0;
  ChunkSeq playback_next_ = 0;
  bool playback_started_ = false;

  PeerCounters counters_;
};

}  // namespace ppsim::proto
