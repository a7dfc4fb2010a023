#include "proto/peer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <span>
#include <vector>

#include "proto_testutil.h"

namespace ppsim::proto {
namespace {

using testing::MiniWorld;

TEST(PeerTest, JoinReachesPlayback) {
  MiniWorld world;
  Peer& peer = world.add_peer(net::IspCategory::kTele);
  peer.join();
  world.simulator().run_until(sim::Time::minutes(3));
  EXPECT_TRUE(peer.playback_started());
  EXPECT_GT(peer.neighbor_count(), 0u);
  EXPECT_GT(peer.counters().chunks_played, 0u);
  EXPECT_GT(peer.counters().bytes_downloaded, 0u);
  // A lone peer downloads everything from the source; continuity should be
  // essentially perfect once started.
  EXPECT_GT(peer.counters().continuity(), 0.9);
}

TEST(PeerTest, TwoPeersExchangeData) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  Peer& b = world.add_peer(net::IspCategory::kTele);
  a.join();
  world.simulator().schedule(sim::Time::seconds(30), [&] { b.join(); });
  world.simulator().run_until(sim::Time::minutes(4));
  EXPECT_TRUE(b.playback_started());
  // b discovered a (via tracker or source referral) and vice versa.
  auto b_neighbors = b.neighbor_ips();
  EXPECT_TRUE(std::find(b_neighbors.begin(), b_neighbors.end(), a.ip()) !=
              b_neighbors.end());
  // At least some of the swarm's data flows peer-to-peer.
  EXPECT_GT(a.counters().data_requests_served +
                b.counters().data_requests_served,
            0u);
}

TEST(PeerTest, GossipRunsAtConfiguredPeriod) {
  MiniWorld world;
  PeerConfig config;
  Peer& a = world.add_peer(net::IspCategory::kTele, config);
  Peer& b = world.add_peer(net::IspCategory::kTele, config);
  a.join();
  b.join();
  world.simulator().run_until(sim::Time::minutes(5));
  // Every 20 s with fanout 2 but only ~2 neighbors: expect roughly
  // (300 s / 20 s) * min(fanout, neighbors) probes, plus the per-connect
  // immediate queries. Just check the order of magnitude and that replies
  // flow.
  EXPECT_GE(a.counters().gossip_queries_sent, 10u);
  EXPECT_GT(a.counters().gossip_replies_received, 5u);
  EXPECT_GT(b.counters().gossip_queries_answered, 5u);
}

TEST(PeerTest, TrackerQueryDecaysWhenHealthy) {
  // Paper: once playback is satisfactory, tracker queries drop to one per
  // five minutes. With healthy_neighbors=1 a single source connection makes
  // the peer "healthy" almost immediately.
  MiniWorld world;
  PeerConfig config;
  config.healthy_neighbors = 1;
  Peer& peer = world.add_peer(net::IspCategory::kTele, config);
  peer.join();
  world.simulator().run_until(sim::Time::minutes(21));
  // Initial sweep (1 tracker in MiniWorld) + ~4 steady 5-minute queries.
  EXPECT_LE(peer.counters().tracker_queries_sent, 8u);
  EXPECT_GE(peer.counters().tracker_queries_sent, 3u);
}

TEST(PeerTest, UnhealthyPeerQueriesTrackersFrequently) {
  MiniWorld world;
  PeerConfig config;
  config.healthy_neighbors = 50;  // unattainable in this tiny world
  Peer& peer = world.add_peer(net::IspCategory::kTele, config);
  peer.join();
  world.simulator().run_until(sim::Time::minutes(10));
  // Every 30 s for 10 minutes => ~20 rounds.
  EXPECT_GE(peer.counters().tracker_queries_sent, 15u);
}

TEST(PeerTest, PeerListCappedAtSixty) {
  MiniWorld world;
  PeerConfig config;
  config.max_neighbors = 100;
  std::vector<Peer*> peers;
  for (int i = 0; i < 70; ++i)
    peers.push_back(&world.add_peer(net::IspCategory::kTele, config));
  for (auto* p : peers) p->join();
  world.simulator().run_until(sim::Time::minutes(3));
  // No referral list on the wire may exceed 60 entries: verified via a tap
  // recording every PeerListReply/Query.
  bool saw_list = false;
  bool violated = false;
  world.network().set_global_tap(
      [&](const net::Endpoint&, const net::Endpoint&, const Message& m,
          std::uint64_t) {
        if (const auto* r = std::get_if<PeerListReply>(&m)) {
          saw_list = true;
          if (r->peers.size() > 60) violated = true;
        }
        if (const auto* q = std::get_if<PeerListQuery>(&m)) {
          if (q->my_peers.size() > 60) violated = true;
        }
      });
  world.simulator().run_until(sim::Time::minutes(5));
  EXPECT_TRUE(saw_list);
  EXPECT_FALSE(violated);
}

TEST(PeerTest, LeaveSendsGoodbyeAndDetaches) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  Peer& b = world.add_peer(net::IspCategory::kTele);
  a.join();
  b.join();
  world.simulator().run_until(sim::Time::minutes(2));
  ASSERT_GT(b.neighbor_count(), 0u);
  const auto b_neighbors_before = b.neighbor_ips();
  ASSERT_TRUE(std::find(b_neighbors_before.begin(), b_neighbors_before.end(),
                        a.ip()) != b_neighbors_before.end());

  a.leave();
  EXPECT_FALSE(a.alive());
  EXPECT_FALSE(world.network().attached(a.ip()));
  world.simulator().run_until(sim::Time::minutes(2) + sim::Time::seconds(5));
  const auto b_neighbors_after = b.neighbor_ips();
  EXPECT_TRUE(std::find(b_neighbors_after.begin(), b_neighbors_after.end(),
                        a.ip()) == b_neighbors_after.end());
}

TEST(PeerTest, LeaveIsIdempotent) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  a.join();
  world.simulator().run_until(sim::Time::seconds(30));
  a.leave();
  a.leave();
  EXPECT_FALSE(a.alive());
}

TEST(PeerTest, SimulationContinuesAfterLeave) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  Peer& b = world.add_peer(net::IspCategory::kTele);
  a.join();
  b.join();
  world.simulator().run_until(sim::Time::minutes(1));
  a.leave();
  world.simulator().run_until(sim::Time::minutes(4));
  // b keeps streaming from the source after a departs.
  EXPECT_GT(b.counters().continuity(), 0.8);
}

TEST(PeerTest, NeighborLatencyEstimatesTracked) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  a.join();
  world.simulator().run_until(sim::Time::minutes(2));
  ASSERT_GT(a.neighbor_count(), 0u);
  for (const auto& ip : a.neighbor_ips()) {
    EXPECT_GT(a.neighbor_latency_estimate(ip), 0.0);
    EXPECT_LT(a.neighbor_latency_estimate(ip), 5.0);
  }
  EXPECT_LT(a.neighbor_latency_estimate(net::IpAddress(1, 2, 3, 4)), 0.0);
}

TEST(PeerTest, DuplicateDataCounted) {
  // Duplicates can arise from timeout-retries; ensure the counter exists
  // and stays small relative to the download volume.
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  a.join();
  world.simulator().run_until(sim::Time::minutes(3));
  EXPECT_LE(a.counters().duplicate_chunks,
            a.counters().data_replies_received / 4 + 5);
}

TEST(PeerTest, CandidatePoolBounded) {
  MiniWorld world;
  PeerConfig config;
  config.candidate_pool_limit = 10;
  Peer& a = world.add_peer(net::IspCategory::kTele, config);
  for (int i = 0; i < 30; ++i)
    world.add_peer(net::IspCategory::kTele).join();
  a.join();
  world.simulator().run_until(sim::Time::minutes(3));
  EXPECT_LE(a.candidate_pool_size(), 10u);
}

/// Reference model of the candidate pool in its set-plus-FIFO form, fed
/// every address list the peer is handed.
struct PoolModel {
  net::IpAddress self;
  std::size_t limit = 0;
  std::deque<net::IpAddress> fifo;
  std::set<net::IpAddress> members;
  std::size_t repeats = 0;    // addresses learned while already pooled
  std::size_t evictions = 0;

  void learn(const std::vector<net::IpAddress>& ips) {
    for (const auto& ip : ips) {
      if (ip == self || ip.is_unspecified()) continue;
      if (!members.insert(ip).second) {
        ++repeats;
        continue;
      }
      fifo.push_back(ip);
      while (fifo.size() > limit) {
        members.erase(fifo.front());
        fifo.pop_front();
        ++evictions;
      }
    }
  }
};

/// Picks like the PPLive policy, and records what each choose() call was
/// given next to what the peer should have handed it.
class RecordingPolicy final : public SelectionPolicy {
 public:
  struct Call {
    std::vector<net::IpAddress> pool;
    std::vector<net::IpAddress> model_pool;
    std::vector<net::IpAddress> excluded;
    std::vector<net::IpAddress> neighbors;
    /// Excluded addresses beyond self/bootstrap/tracker/neighbors, and
    /// which of them were never chosen before (so cannot be pending).
    std::size_t pending = 0;
    std::size_t unexplained = 0;
  };

  RecordingPolicy(const PoolModel& model,
                  std::vector<net::IpAddress> infrastructure)
      : model_(model), infrastructure_(std::move(infrastructure)) {}

  std::vector<net::IpAddress> choose(std::span<const net::IpAddress> fresh,
                                     std::span<const net::IpAddress> pool,
                                     std::span<const net::IpAddress> excluded,
                                     std::size_t want,
                                     sim::Rng& rng) override {
    Call call{{pool.begin(), pool.end()},
              {model_.fifo.begin(), model_.fifo.end()},
              {excluded.begin(), excluded.end()},
              peer->neighbor_ips()};
    for (const auto& ip : excluded) {
      const auto known = [ip](const std::vector<net::IpAddress>& v) {
        return std::find(v.begin(), v.end(), ip) != v.end();
      };
      if (known(infrastructure_) || known(call.neighbors)) continue;
      ++call.pending;
      if (!chosen_.contains(ip)) ++call.unexplained;
    }
    calls.push_back(std::move(call));
    auto out = inner_.choose(fresh, pool, excluded, want, rng);
    chosen_.insert(out.begin(), out.end());
    return out;
  }

  const Peer* peer = nullptr;
  std::vector<Call> calls;

 private:
  const PoolModel& model_;
  std::vector<net::IpAddress> infrastructure_;  // self, bootstrap, tracker
  ReferralSelection inner_;
  std::set<net::IpAddress> chosen_;
};

TEST(PeerTest, SelectionSeesFifoPoolAndSortedExclusions) {
  MiniWorld world;
  PeerConfig config;
  config.candidate_pool_limit = 10;
  const HostIdentity id = world.identity(net::IspCategory::kTele);
  PoolModel model;
  model.self = id.ip;
  model.limit = 10;
  auto owned = std::make_unique<RecordingPolicy>(
      model, std::vector<net::IpAddress>{id.ip, world.bootstrap().ip(),
                                         world.tracker().ip()});
  RecordingPolicy& policy = *owned;
  Peer a(world.simulator(), world.network(), id, world.channel(),
         world.bootstrap().ip(), sim::Rng(77), config, std::move(owned));
  policy.peer = &a;
  // Every list the peer learns candidates from, in delivery order; the tap
  // runs just before the peer's handler.
  bool joined = false;
  world.network().set_global_tap(
      [&](const net::Endpoint&, const net::Endpoint& to, const Message& m,
          std::uint64_t) {
        if (to.ip != a.ip()) return;
        if (const auto* jr = std::get_if<JoinReply>(&m); jr && !joined) {
          joined = true;
          model.learn({jr->source});
        } else if (const auto* tr = std::get_if<TrackerReply>(&m)) {
          model.learn(tr->peers);
        } else if (const auto* q = std::get_if<PeerListQuery>(&m)) {
          model.learn(q->my_peers);
        } else if (const auto* r = std::get_if<PeerListReply>(&m)) {
          model.learn(r->peers);
        }
      });
  for (int i = 0; i < 30; ++i)
    world.add_peer(net::IspCategory::kTele).join();
  a.join();
  world.simulator().run_until(sim::Time::minutes(3));

  ASSERT_GT(policy.calls.size(), 10u);
  ASSERT_GT(model.evictions, 0u) << "pool never overflowed its limit";
  ASSERT_GT(model.repeats, 0u) << "no address was ever learned twice";
  std::size_t with_pending = 0;
  for (std::size_t i = 0; i < policy.calls.size(); ++i) {
    const auto& call = policy.calls[i];
    // The last `limit` distinct addresses, oldest first; a repeat keeps
    // its original place.
    EXPECT_EQ(call.pool, call.model_pool) << "call " << i;
    EXPECT_TRUE(std::is_sorted(call.excluded.begin(), call.excluded.end()))
        << "call " << i;
    for (const auto& ip : {a.ip(), world.bootstrap().ip(),
                           world.tracker().ip()}) {
      EXPECT_TRUE(std::binary_search(call.excluded.begin(),
                                     call.excluded.end(), ip))
          << "call " << i << " misses " << ip.to_string();
    }
    for (const auto& ip : call.neighbors) {
      EXPECT_TRUE(std::binary_search(call.excluded.begin(),
                                     call.excluded.end(), ip))
          << "call " << i << " misses neighbor " << ip.to_string();
    }
    // The rest are pending handshakes: targets handed out earlier.
    EXPECT_EQ(call.unexplained, 0u) << "call " << i;
    if (call.pending > 0) ++with_pending;
  }
  EXPECT_GT(with_pending, 0u) << "no call ran with a handshake pending";
}

TEST(PeerTest, PlaybackLagsLiveEdge) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  a.join();
  world.simulator().run_until(sim::Time::minutes(3));
  ASSERT_TRUE(a.playback_started());
  // Playback never runs ahead of the peer's knowledge of the edge...
  EXPECT_LE(a.playback_position(), a.live_edge_estimate() + 1);
  // ...and the true live edge (known only to the source) stays ahead.
  EXPECT_GT(world.source().chunks_produced(), a.playback_position());
}

TEST(PeerTest, PlaybackStartsNearLiveEdge) {
  MiniWorld world;
  Peer& viewer = world.add_peer(net::IspCategory::kTele);
  viewer.join();
  world.simulator().run_until(sim::Time::minutes(2));
  ASSERT_TRUE(viewer.playback_started());
  // A live viewer's playback point is near the edge, far from chunk 1.
  EXPECT_GT(viewer.playback_position(), 100u);
}

TEST(PeerTest, LiveEdgeIsMonotoneMaxOfAdvertisedAndStored) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  // A scripted neighbor: a bare host whose messages the test sends by hand.
  const HostIdentity fake = world.identity(net::IspCategory::kTele);
  world.network().attach(fake.ip, fake.isp, fake.category, fake.profile,
                         [](const PeerNetwork::Delivery&) {});
  const auto is_neighbor = [&a](net::IpAddress ip) {
    const auto ips = a.neighbor_ips();
    return std::find(ips.begin(), ips.end(), ip) != ips.end();
  };
  // Highest chunk of every map `a` takes in: accepted handshakes and
  // announcements from current neighbors. The tap runs just before the
  // delivery handler.
  ChunkSeq advertised = 0;
  world.network().set_global_tap(
      [&](const net::Endpoint& from, const net::Endpoint& to,
          const Message& m, std::uint64_t) {
        if (to.ip != a.ip()) return;
        if (const auto* ann = std::get_if<BufferMapAnnounce>(&m);
            ann != nullptr && is_neighbor(from.ip))
          advertised = std::max(advertised, ann->map.highest());
        if (const auto* cr = std::get_if<ConnectReply>(&m);
            cr != nullptr && cr->accepted)
          advertised = std::max(advertised, cr->map.highest());
      });
  ChunkSeq last_edge = 0;
  bool monotone = true;
  bool exact = true;
  sim::schedule_periodic(world.simulator(), sim::Time::millis(100), [&] {
    const ChunkSeq edge = a.live_edge_estimate();
    monotone = monotone && edge >= last_edge;
    exact = exact && edge == std::max(advertised, a.store().highest());
    last_edge = edge;
    return true;
  });
  a.join();
  world.simulator().run_until(sim::Time::seconds(60));
  ASSERT_GT(a.live_edge_estimate(), 0u);

  const ChannelId channel = world.channel().id;
  const auto from_fake = [&](Message m) {
    const std::uint64_t bytes = wire_size(m);
    world.network().send(fake.ip, a.ip(), std::move(m), bytes);
  };
  const auto window = [](ChunkSeq base) {
    BufferMap map;
    map.base = base;
    map.have.assign(8, true);
    return map;
  };
  from_fake(ConnectQuery{channel});
  world.simulator().run_until(sim::Time::seconds(61));
  ASSERT_TRUE(is_neighbor(fake.ip));

  // Far ahead of the stream: the edge jumps to the advertised chunk...
  const ChunkSeq high = a.live_edge_estimate() + 1000;
  from_fake(BufferMapAnnounce{channel, window(high - 7)});
  world.simulator().run_until(sim::Time::seconds(62));
  EXPECT_EQ(a.live_edge_estimate(), high);
  // ...and neither a lower map nor the neighbor's departure lowers it.
  from_fake(BufferMapAnnounce{channel, window(1)});
  world.simulator().run_until(sim::Time::seconds(63));
  EXPECT_EQ(a.live_edge_estimate(), high);
  from_fake(Goodbye{channel});
  world.simulator().run_until(sim::Time::seconds(64));
  EXPECT_FALSE(is_neighbor(fake.ip));
  EXPECT_EQ(a.live_edge_estimate(), high);

  EXPECT_TRUE(monotone);
  EXPECT_TRUE(exact);
}

TEST(PeerTest, WindowNeverRequestsBeyondLiveEdge) {
  MiniWorld world;
  Peer& a = world.add_peer(net::IspCategory::kTele);
  ChunkSeq max_requested = 0;
  world.network().set_global_tap(
      [&](const net::Endpoint&, const net::Endpoint&, const Message& m,
          std::uint64_t) {
        if (const auto* q = std::get_if<DataQuery>(&m))
          max_requested = std::max(max_requested, q->chunk);
      });
  a.join();
  world.simulator().run_until(sim::Time::minutes(2));
  EXPECT_LE(max_requested, world.source().chunks_produced());
}

}  // namespace
}  // namespace ppsim::proto
