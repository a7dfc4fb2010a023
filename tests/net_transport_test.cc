#include "net/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "net/ip_index.h"
#include "net/isp.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ppsim::net {
namespace {

using TestNetwork = Network<std::string>;

LatencyModel lossless_latency() {
  LatencyConfig cfg;
  cfg.intra_isp_loss = 0;
  cfg.china_cross_loss = 0;
  cfg.transoceanic_loss = 0;
  cfg.foreign_cross_loss = 0;
  cfg.packet_sigma = 0;   // deterministic propagation
  cfg.pair_sigma = 0;
  return LatencyModel(cfg);
}

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : network_(simulator_, lossless_latency(), sim::Rng(1)) {}

  void attach(IpAddress ip, IspCategory cat, std::uint32_t isp,
              std::vector<std::string>* inbox) {
    network_.attach(ip, IspId{isp}, cat, AccessProfile{100e6, 100e6},
                    [inbox](const TestNetwork::Delivery& d) {
                      if (inbox) inbox->push_back(d.payload);
                    });
  }

  sim::Simulator simulator_;
  TestNetwork network_;
};

TEST_F(TransportTest, DeliversPayload) {
  std::vector<std::string> inbox;
  attach(IpAddress(1, 0, 0, 1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(1, 0, 0, 2), IspCategory::kTele, 0, &inbox);
  EXPECT_TRUE(network_.send(IpAddress(1, 0, 0, 1), IpAddress(1, 0, 0, 2),
                            "hello", 100));
  simulator_.run();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0], "hello");
  EXPECT_EQ(network_.stats().packets_delivered, 1u);
}

TEST_F(TransportTest, DeliveryCarriesMetadata) {
  TestNetwork::Delivery got;
  network_.attach(IpAddress(9), IspId{0}, IspCategory::kTele,
                  AccessProfile{100e6, 100e6},
                  [&](const TestNetwork::Delivery& d) { got = d; });
  attach(IpAddress(8), IspCategory::kCnc, 1, nullptr);
  network_.send(IpAddress(8), IpAddress(9), "x", 321);
  simulator_.run();
  EXPECT_EQ(got.from, IpAddress(8));
  EXPECT_EQ(got.to, IpAddress(9));
  EXPECT_EQ(got.wire_bytes, 321u);
  EXPECT_EQ(got.sent_at, sim::Time::zero());
}

TEST_F(TransportTest, UnknownSenderFails) {
  attach(IpAddress(2), IspCategory::kTele, 0, nullptr);
  EXPECT_FALSE(network_.send(IpAddress(1), IpAddress(2), "x", 10));
}

TEST_F(TransportTest, UnknownDestinationDropsSilently) {
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  EXPECT_TRUE(network_.send(IpAddress(1), IpAddress(2), "x", 10));
  simulator_.run();
  EXPECT_EQ(network_.stats().dead_destination_drops, 1u);
  EXPECT_EQ(network_.stats().packets_delivered, 0u);
}

TEST_F(TransportTest, UnspecifiedDestinationIsADeadDestinationDrop) {
  // 0.0.0.0 marks an empty index cell; it must never resolve to a host slot.
  std::vector<std::string> inbox;
  attach(IpAddress(1), IspCategory::kTele, 0, &inbox);
  attach(IpAddress(2), IspCategory::kTele, 0, &inbox);
  EXPECT_FALSE(network_.attached(IpAddress()));
  EXPECT_TRUE(network_.send(IpAddress(1), IpAddress(), "x", 10));
  EXPECT_FALSE(network_.send(IpAddress(), IpAddress(2), "y", 10));
  simulator_.run();
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(network_.stats().dead_destination_drops, 1u);
  EXPECT_EQ(network_.stats().packets_delivered, 0u);
}

TEST_F(TransportTest, DetachedDestinationDoesNotReceive) {
  std::vector<std::string> inbox;
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kTele, 0, &inbox);
  network_.send(IpAddress(1), IpAddress(2), "x", 10);
  network_.detach(IpAddress(2));  // leaves while the packet is in flight
  simulator_.run();
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(network_.stats().dead_destination_drops, 1u);
}

TEST_F(TransportTest, ReattachedHostIsNewIncarnation) {
  // A packet addressed to the old incarnation must not reach the new one.
  std::vector<std::string> old_inbox, new_inbox;
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kTele, 0, &old_inbox);
  network_.send(IpAddress(1), IpAddress(2), "x", 10);
  network_.detach(IpAddress(2));
  attach(IpAddress(2), IspCategory::kTele, 0, &new_inbox);
  simulator_.run();
  EXPECT_TRUE(old_inbox.empty());
  EXPECT_TRUE(new_inbox.empty());
}

TEST_F(TransportTest, PropagationDelayMatchesModel) {
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  sim::Time arrival;
  network_.attach(IpAddress(2), IspId{1}, IspCategory::kCnc,
                  AccessProfile{100e6, 100e6},
                  [&](const TestNetwork::Delivery&) {
                    arrival = simulator_.now();
                  });
  network_.send(IpAddress(1), IpAddress(2), "x", 1000);
  simulator_.run();
  // one-way = rtt/2 (140 ms / 2 = 70 ms) + serialization on both links
  // (1000 B at 100 Mbps = 80 us each).
  const sim::Time expected =
      sim::Time::millis(70) + sim::Time::micros(80) + sim::Time::micros(80);
  EXPECT_EQ(arrival, expected);
}

TEST_F(TransportTest, TrueRttExposedForValidation) {
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kCnc, 1, nullptr);
  EXPECT_EQ(network_.true_rtt(IpAddress(1), IpAddress(2)),
            sim::Time::millis(140));
}

TEST_F(TransportTest, TapSeesBothDirections) {
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kTele, 0, nullptr);
  struct Seen {
    Direction dir;
    IpAddress local, remote;
  };
  std::vector<Seen> taps;
  network_.set_tap(IpAddress(1), [&](Direction dir, IpAddress local,
                                     IpAddress remote, const std::string&,
                                     std::uint64_t) {
    taps.push_back({dir, local, remote});
  });
  network_.send(IpAddress(1), IpAddress(2), "out", 10);
  network_.send(IpAddress(2), IpAddress(1), "in", 10);
  simulator_.run();
  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps[0].dir, Direction::kOutgoing);
  EXPECT_EQ(taps[0].local, IpAddress(1));
  EXPECT_EQ(taps[0].remote, IpAddress(2));
  EXPECT_EQ(taps[1].dir, Direction::kIncoming);
  EXPECT_EQ(taps[1].local, IpAddress(1));
  EXPECT_EQ(taps[1].remote, IpAddress(2));
}

TEST_F(TransportTest, GlobalTapSeesDeliveries) {
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kCnc, 1, nullptr);
  int count = 0;
  network_.set_global_tap([&](const Endpoint& from, const Endpoint& to,
                              const std::string&, std::uint64_t) {
    EXPECT_EQ(from.category, IspCategory::kTele);
    EXPECT_EQ(to.category, IspCategory::kCnc);
    ++count;
  });
  network_.send(IpAddress(1), IpAddress(2), "x", 10);
  simulator_.run();
  EXPECT_EQ(count, 1);
}

TEST_F(TransportTest, GlobalTapReportsTheSendersCurrentIncarnation) {
  // The global tap looks the sender up by IP at delivery, any incarnation:
  // a sender that detached while its packet was in flight is skipped, and
  // one that re-attached since is reported with its new endpoint. The
  // packet itself is delivered either way.
  std::vector<std::string> inbox;
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kCnc, 1, &inbox);
  std::vector<IspCategory> from_categories;
  network_.set_global_tap([&](const Endpoint& from, const Endpoint& to,
                              const std::string&, std::uint64_t) {
    EXPECT_EQ(from.ip, IpAddress(1));
    EXPECT_EQ(to.ip, IpAddress(2));
    from_categories.push_back(from.category);
  });

  network_.send(IpAddress(1), IpAddress(2), "gone", 10);
  network_.detach(IpAddress(1));
  simulator_.run();
  EXPECT_EQ(inbox, (std::vector<std::string>{"gone"}));
  EXPECT_TRUE(from_categories.empty());

  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  network_.send(IpAddress(1), IpAddress(2), "moved", 10);
  network_.detach(IpAddress(1));
  attach(IpAddress(1), IspCategory::kForeign, 7, nullptr);
  simulator_.run();
  EXPECT_EQ(inbox, (std::vector<std::string>{"gone", "moved"}));
  EXPECT_EQ(from_categories, (std::vector<IspCategory>{IspCategory::kForeign}));
  EXPECT_EQ(network_.stats().packets_delivered, 2u);
}

TEST_F(TransportTest, ReusedHostSlotNeverGetsTheOldAddressesPackets) {
  // Host 2 detaches with a packet in flight and host 3, a different IP,
  // takes the freed slot. The packet is a dead-destination drop, not a
  // delivery to host 3; a packet addressed to host 3 still reaches it.
  std::vector<std::string> inbox2, inbox3;
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kTele, 0, &inbox2);
  network_.send(IpAddress(1), IpAddress(2), "for 2", 10);
  network_.detach(IpAddress(2));
  attach(IpAddress(3), IspCategory::kTele, 0, &inbox3);
  network_.send(IpAddress(1), IpAddress(3), "for 3", 10);
  simulator_.run();
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(inbox3, (std::vector<std::string>{"for 3"}));
  EXPECT_EQ(network_.stats().dead_destination_drops, 1u);
  EXPECT_EQ(network_.stats().packets_delivered, 1u);
}

TEST_F(TransportTest, HandlerMayAttachHostsAndSend) {
  // The first delivery's handler attaches enough hosts to grow the host
  // table and the IP index several times over, and every handler sends from
  // inside the delivery. The Delivery it holds, the second ping still in
  // flight and the running handler itself must survive the growth.
  constexpr std::uint32_t kNewHosts = 300;
  std::vector<std::string> replies;
  attach(IpAddress(1), IspCategory::kTele, 0, &replies);
  bool grown = false;
  network_.attach(
      IpAddress(2), IspId{0}, IspCategory::kTele, AccessProfile{100e6, 100e6},
      [&](const TestNetwork::Delivery& d) {
        for (std::uint32_t i = 0; !grown && i < kNewHosts; ++i) {
          attach(IpAddress(1000 + i), IspCategory::kCnc, 1, nullptr);
          network_.send(IpAddress(1000 + i), IpAddress(1), "late", 10);
        }
        grown = true;
        EXPECT_EQ(d.payload, "ping");
        EXPECT_EQ(d.from, IpAddress(1));
        network_.send(IpAddress(2), IpAddress(1), "pong:" + d.payload, 10);
      });
  network_.send(IpAddress(1), IpAddress(2), "ping", 10);
  network_.send(IpAddress(1), IpAddress(2), "ping", 10);
  simulator_.run();
  EXPECT_EQ(network_.host_count(), 2 + kNewHosts);
  ASSERT_EQ(replies.size(), 2u + kNewHosts);
  EXPECT_EQ(std::count(replies.begin(), replies.end(), "pong:ping"), 2);
  EXPECT_EQ(network_.stats().packets_delivered, 2u + 2u + kNewHosts);
}

TEST(IpIndexTest, RandomChurnMatchesReference) {
  // Attach/detach churn over a small address range, so probe runs collide
  // and wrap, checked after every operation against a std::map reference.
  // Backward-shift deletion must keep every remaining address reachable.
  IpIndex index;
  EXPECT_EQ(index.find(IpAddress()), IpIndex::kNone);
  std::map<std::uint32_t, std::uint32_t> reference;  // ip -> slot
  sim::Rng rng(7);
  std::uint32_t next_slot = 0;
  for (int op = 0; op < 20000; ++op) {
    const auto ip = static_cast<std::uint32_t>(1 + rng.next_below(400));
    if (reference.contains(ip)) {
      EXPECT_EQ(index.erase(IpAddress(ip)), reference[ip]);
      reference.erase(ip);
    } else {
      index.insert(IpAddress(ip), next_slot);
      reference[ip] = next_slot++;
    }
    ASSERT_EQ(index.size(), reference.size());
    for (int probe = 0; probe < 4; ++probe) {
      const auto q = static_cast<std::uint32_t>(1 + rng.next_below(400));
      const auto it = reference.find(q);
      ASSERT_EQ(index.find(IpAddress(q)),
                it == reference.end() ? IpIndex::kNone : it->second)
          << "op " << op << " ip " << q;
    }
    ASSERT_EQ(index.find(IpAddress()), IpIndex::kNone) << "op " << op;
  }
  for (std::uint32_t ip = 1; ip <= 400; ++ip) {
    const auto it = reference.find(ip);
    EXPECT_EQ(index.find(IpAddress(ip)),
              it == reference.end() ? IpIndex::kNone : it->second);
  }
  EXPECT_EQ(index.erase(IpAddress(401)), IpIndex::kNone);
}

TEST_F(TransportTest, UplinkSerializationOrdersDepartures) {
  // Slow uplink: second packet arrives later than twice the serialization.
  network_.attach(IpAddress(1), IspId{0}, IspCategory::kTele,
                  AccessProfile{100e6, 1e6}, nullptr);
  std::vector<sim::Time> arrivals;
  network_.attach(IpAddress(2), IspId{0}, IspCategory::kTele,
                  AccessProfile{100e6, 100e6},
                  [&](const TestNetwork::Delivery&) {
                    arrivals.push_back(simulator_.now());
                  });
  network_.send(IpAddress(1), IpAddress(2), "a", 12500);  // 100 ms at 1 Mbps
  network_.send(IpAddress(1), IpAddress(2), "b", 12500);
  simulator_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], sim::Time::millis(100));
}

TEST_F(TransportTest, LossyPathDropsSome) {
  LatencyConfig cfg;
  cfg.transoceanic_loss = 0.5;
  TestNetwork lossy(simulator_, LatencyModel(cfg), sim::Rng(3));
  int received = 0;
  lossy.attach(IpAddress(1), IspId{0}, IspCategory::kTele,
               AccessProfile{100e6, 100e6}, nullptr);
  lossy.attach(IpAddress(2), IspId{9}, IspCategory::kForeign,
               AccessProfile{100e6, 100e6},
               [&](const TestNetwork::Delivery&) { ++received; });
  for (int i = 0; i < 500; ++i)
    lossy.send(IpAddress(1), IpAddress(2), "x", 10);
  simulator_.run();
  EXPECT_GT(received, 150);
  EXPECT_LT(received, 350);
  EXPECT_EQ(lossy.stats().core_drops + static_cast<std::uint64_t>(received),
            500u);
}

TEST_F(TransportTest, HostCountTracksAttachDetach) {
  EXPECT_EQ(network_.host_count(), 0u);
  attach(IpAddress(1), IspCategory::kTele, 0, nullptr);
  attach(IpAddress(2), IspCategory::kTele, 0, nullptr);
  EXPECT_EQ(network_.host_count(), 2u);
  EXPECT_TRUE(network_.attached(IpAddress(1)));
  network_.detach(IpAddress(1));
  EXPECT_FALSE(network_.attached(IpAddress(1)));
  EXPECT_EQ(network_.host_count(), 1u);
}

}  // namespace
}  // namespace ppsim::net
