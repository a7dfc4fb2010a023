// Live node: an in-process loopback deployment of the real-wire mode
// (docs/WIRE.md) — the same protocol entities the simulator runs, but
// exchanging actual UDP datagrams through the kernel.
//
// One wire::UdpTransport binds five loopback addresses (hub's bootstrap +
// tracker, the stream source, and two peers in different ISPs) on a shared
// port; a wall-clock loop slaves the simulator to real time and alternates
// socket polling with event dispatch. Multi-process deployments run the
// same stack via the `ppsim-node` binary (tools/wire_smoke.py launches a
// whole swarm); this example keeps everything in one process so it stays a
// ~10-second runnable demo.

#include <iostream>
#include <vector>

#include "net/asn_db.h"
#include "proto/bootstrap.h"
#include "proto/peer.h"
#include "proto/source.h"
#include "proto/tracker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "wire/clock.h"
#include "wire/node.h"
#include "wire/udp.h"

int main() {
  using namespace ppsim;

  const net::IspRegistry registry = wire::loopback_registry();
  const net::AsnDatabase db = net::AsnDatabase::from_registry(registry);
  const auto identity = [&](net::IpAddress ip) {
    const net::IspCategory category = db.category_or_foreign(ip);
    return proto::HostIdentity{ip, registry.in_category(category).front(),
                               category, net::AccessProfile{}};
  };

  // Second loopback octet encodes the ISP: 127.1/16 = TELE, 127.2/16 = CNC.
  const net::IpAddress bootstrap_ip(127, 1, 0, 1);
  const net::IpAddress tracker_ip(127, 1, 0, 2);
  const net::IpAddress source_ip(127, 1, 0, 3);
  const net::IpAddress peer_a_ip(127, 1, 0, 10);  // same ISP as the source
  const net::IpAddress peer_b_ip(127, 2, 0, 10);  // cross-ISP viewer

  sim::Simulator simulator;
  wire::UdpTransport transport({.port = 47191, .epoch = 1});
  sim::Rng rng(7);

  proto::ChannelSpec channel;
  channel.id = 1;
  channel.name = "live";

  proto::BootstrapServer bootstrap(simulator, transport,
                                   identity(bootstrap_ip));
  proto::TrackerServer tracker(simulator, transport, identity(tracker_ip),
                               rng.fork(1));
  proto::BootstrapServer::ChannelEntry entry;
  entry.channel = channel.id;
  entry.source = source_ip;
  entry.tracker_groups = {{tracker_ip}};
  bootstrap.register_channel(std::move(entry));

  rng.next_u64();  // keeps the peers' forks below where they were
  proto::StreamSource source(simulator, transport, identity(source_ip),
                             channel, {tracker_ip});
  source.start();

  proto::Peer peer_a(simulator, transport, identity(peer_a_ip), channel,
                     bootstrap_ip, rng.fork(3));
  proto::Peer peer_b(simulator, transport, identity(peer_b_ip), channel,
                     bootstrap_ip, rng.fork(4));
  peer_a.join();
  peer_b.join();

  std::cout << "Live loopback deployment on 127.0.0.0/8 port 47191: "
            << "hub + source + 2 peers, 10 wall-clock seconds...\n";

  wire::WallClock clock;
  const sim::Time deadline = sim::Time::from_seconds(10.0);
  while (clock.now() < deadline) {
    wire::advance_to_wall(simulator, clock.now());
    transport.poll(/*timeout_ms=*/2);
    transport.dispatch(simulator.now());
  }
  peer_a.leave();
  peer_b.leave();
  source.stop();

  const auto report = [&](const char* label, const proto::Peer& p) {
    const auto& c = p.counters();
    std::cout << label << ": played " << c.chunks_played << " chunks, missed "
              << c.chunks_missed << ", continuity "
              << (c.chunks_played + c.chunks_missed == 0
                      ? 0.0
                      : 100.0 * c.continuity())
              << "%\n";
  };
  report("peer A (TELE, same ISP as source)", peer_a);
  report("peer B (CNC, cross-ISP)", peer_b);

  const auto& stats = transport.stats();
  std::cout << "wire: " << stats.packets_sent << " datagrams sent, "
            << stats.packets_delivered << " delivered, "
            << transport.rx_errors().total() << " rx errors\n"
            << "Every datagram was a real UDP packet; the entities are the "
               "unmodified sim protocol code.\n";
  return 0;
}
