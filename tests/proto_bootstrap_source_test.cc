#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "proto/bootstrap.h"
#include "proto/source.h"
#include "proto_testutil.h"
#include "sim/trace.h"

namespace ppsim::proto {
namespace {

using testing::MiniWorld;

/// Bare client that records bootstrap/source traffic.
class RawClient {
 public:
  RawClient(MiniWorld& world, net::IspCategory cat)
      : world_(world), identity_(world.identity(cat)) {
    world_.network().attach(
        identity_.ip, identity_.isp, identity_.category, identity_.profile,
        [this](const PeerNetwork::Delivery& d) { inbox_.push_back(d); });
  }

  void send(net::IpAddress to, Message m) {
    const auto bytes = wire_size(m);
    world_.network().send(identity_.ip, to, std::move(m), bytes);
  }

  template <typename T>
  std::vector<T> received() const {
    std::vector<T> out;
    for (const auto& d : inbox_)
      if (const auto* m = std::get_if<T>(&d.payload)) out.push_back(*m);
    return out;
  }

  net::IpAddress ip() const { return identity_.ip; }

 private:
  MiniWorld& world_;
  HostIdentity identity_;
  std::vector<PeerNetwork::Delivery> inbox_;
};

TEST(BootstrapTest, ChannelListReturned) {
  MiniWorld world;
  RawClient c(world, net::IspCategory::kTele);
  c.send(world.bootstrap().ip(), Message{ChannelListQuery{}});
  world.simulator().run_until(sim::Time::seconds(1));
  auto replies = c.received<ChannelListReply>();
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].channels.size(), 1u);
  EXPECT_EQ(replies[0].channels[0], world.channel().id);
}

TEST(BootstrapTest, JoinReturnsPlaylinkAndTrackers) {
  MiniWorld world;
  RawClient c(world, net::IspCategory::kCnc);
  c.send(world.bootstrap().ip(), Message{JoinQuery{world.channel().id}});
  world.simulator().run_until(sim::Time::seconds(1));
  auto replies = c.received<JoinReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].source, world.source().ip());
  ASSERT_EQ(replies[0].trackers.size(), 1u);
  EXPECT_EQ(replies[0].trackers[0], world.tracker().ip());
  EXPECT_EQ(world.bootstrap().joins_served(), 1u);
}

TEST(BootstrapTest, UnknownChannelIgnored) {
  MiniWorld world;
  RawClient c(world, net::IspCategory::kTele);
  c.send(world.bootstrap().ip(), Message{JoinQuery{999}});
  world.simulator().run_until(sim::Time::seconds(1));
  EXPECT_TRUE(c.received<JoinReply>().empty());
  EXPECT_EQ(world.bootstrap().joins_served(), 0u);
}

TEST(BootstrapTest, TrackerGroupRotation) {
  MiniWorld world;
  // Register a second channel with a two-server group.
  BootstrapServer::ChannelEntry entry;
  entry.channel = 7;
  entry.source = world.source().ip();
  entry.tracker_groups = {{net::IpAddress(9, 0, 0, 1), net::IpAddress(9, 0, 0, 2)}};
  world.bootstrap().register_channel(std::move(entry));

  RawClient c(world, net::IspCategory::kTele);
  c.send(world.bootstrap().ip(), Message{JoinQuery{7}});
  c.send(world.bootstrap().ip(), Message{JoinQuery{7}});
  world.simulator().run_until(sim::Time::seconds(1));
  auto replies = c.received<JoinReply>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].trackers[0], replies[1].trackers[0]);
}

TEST(BootstrapTest, ServeEventIsCausalOnly) {
  // bootstrap_serve is a causal-only milestone (docs/OBSERVABILITY.md): a
  // traced join emits it only when the simulator runs causal tracing.
  struct RecordingSink final : sim::TraceSink {
    std::vector<sim::TraceEvent> events;
    void write(const sim::TraceEvent& e) override { events.push_back(e); }
  };
  for (const bool causal : {false, true}) {
    SCOPED_TRACE(causal ? "causal" : "plain");
    RecordingSink sink;
    MiniWorld world;
    world.simulator().set_tracing(&sink, causal);
    RawClient c(world, net::IspCategory::kCnc);
    JoinQuery q{world.channel().id};
    q.span = SpanContext{42, 0};
    c.send(world.bootstrap().ip(), Message{q});
    world.simulator().run_until(sim::Time::seconds(1));

    const auto replies = c.received<JoinReply>();
    ASSERT_EQ(replies.size(), 1u);
    std::vector<sim::TraceEvent> serves;
    for (const auto& e : sink.events)
      if (e.name() == "bootstrap_serve") serves.push_back(e);
    if (!causal) {
      EXPECT_TRUE(serves.empty());
      EXPECT_EQ(replies[0].span.id, 0u);
      continue;
    }
    ASSERT_EQ(serves.size(), 1u);
    std::vector<std::string> keys;
    for (const auto& f : serves[0].fields()) keys.push_back(f.key);
    EXPECT_EQ(keys, (std::vector<std::string>{"bootstrap", "to", "channel",
                                              "trackers", "span", "parent"}));
    EXPECT_NE(replies[0].span.id, 0u);
    EXPECT_EQ(replies[0].span.parent, 42u);
    EXPECT_EQ(std::get<std::uint64_t>(serves[0].fields()[4].value),
              replies[0].span.id);
    EXPECT_EQ(std::get<std::uint64_t>(serves[0].fields()[5].value), 42u);
  }
}

TEST(SourceTest, ProducesChunksAtStreamRate) {
  MiniWorld world;
  const double chunk_s = world.channel().chunk_duration().as_seconds();
  world.simulator().run_until(sim::Time::seconds(60));
  const auto produced = world.source().chunks_produced();
  EXPECT_NEAR(static_cast<double>(produced), 60.0 / chunk_s + 1, 2.0);
  EXPECT_EQ(world.source().live_edge(), produced);
}

TEST(SourceTest, AcceptsConnectAndServesData) {
  MiniWorld world;
  RawClient c(world, net::IspCategory::kTele);
  world.simulator().run_until(sim::Time::seconds(10));

  c.send(world.source().ip(), Message{ConnectQuery{world.channel().id}});
  world.simulator().run_until(sim::Time::seconds(11));
  auto accepts = c.received<ConnectReply>();
  ASSERT_EQ(accepts.size(), 1u);
  EXPECT_TRUE(accepts[0].accepted);
  const ChunkSeq available = accepts[0].map.highest();
  ASSERT_GT(available, 0u);

  c.send(world.source().ip(), Message{DataQuery{world.channel().id, available}});
  world.simulator().run_until(sim::Time::seconds(12));
  auto data = c.received<DataReply>();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].chunk, available);
  EXPECT_EQ(data[0].payload_bytes, world.channel().chunk_bytes());
  EXPECT_EQ(world.source().requests_served(), 1u);
}

TEST(SourceTest, DoesNotServeUnproducedChunk) {
  MiniWorld world;
  RawClient c(world, net::IspCategory::kTele);
  world.simulator().run_until(sim::Time::seconds(5));
  c.send(world.source().ip(), Message{DataQuery{world.channel().id, 1000000}});
  world.simulator().run_until(sim::Time::seconds(6));
  EXPECT_TRUE(c.received<DataReply>().empty());
}

TEST(SourceTest, RepliesWithPeerList) {
  MiniWorld world;
  RawClient a(world, net::IspCategory::kTele);
  RawClient b(world, net::IspCategory::kCnc);
  a.send(world.source().ip(), Message{ConnectQuery{world.channel().id}});
  b.send(world.source().ip(), Message{ConnectQuery{world.channel().id}});
  world.simulator().run_until(sim::Time::seconds(1));

  a.send(world.source().ip(),
         Message{PeerListQuery{world.channel().id, {}}});
  world.simulator().run_until(sim::Time::seconds(2));
  auto lists = a.received<PeerListReply>();
  ASSERT_EQ(lists.size(), 1u);
  ASSERT_EQ(lists[0].peers.size(), 1u);
  EXPECT_EQ(lists[0].peers[0], b.ip());  // never lists the requester itself
}

TEST(SourceTest, RegistersWithTracker) {
  MiniWorld world;
  world.simulator().run_until(sim::Time::seconds(5));
  EXPECT_GE(world.tracker().member_count(world.channel().id), 1u);
}

TEST(SourceTest, GoodbyeRemovesNeighbor) {
  MiniWorld world;
  RawClient a(world, net::IspCategory::kTele);
  a.send(world.source().ip(), Message{ConnectQuery{world.channel().id}});
  world.simulator().run_until(sim::Time::seconds(1));
  EXPECT_EQ(world.source().neighbor_count(), 1u);
  a.send(world.source().ip(), Message{Goodbye{world.channel().id}});
  world.simulator().run_until(sim::Time::seconds(2));
  EXPECT_EQ(world.source().neighbor_count(), 0u);
}

TEST(SourceTest, StopHaltsProduction) {
  MiniWorld world;
  world.simulator().run_until(sim::Time::seconds(5));
  world.source().stop();
  const auto frozen = world.source().chunks_produced();
  world.simulator().run_until(sim::Time::seconds(30));
  EXPECT_EQ(world.source().chunks_produced(), frozen);
}

}  // namespace
}  // namespace ppsim::proto
