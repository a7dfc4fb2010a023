#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/asn_db.h"
#include "net/ip.h"
#include "net/transport.h"
#include "proto/host.h"
#include "proto/message.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ppsim::proto {

/// One PPLive-style tracker server.
///
/// The paper finds trackers act as plain membership databases: a query
/// (which doubles as an announcement) returns a uniform random sample of
/// active members, with no locality logic whatsoever. Entries expire when
/// not refreshed. PPLive deploys five *groups* of trackers at different
/// locations in China; the experiment harness instantiates one server per
/// group.
struct TrackerConfig {
  int max_reply_peers = 60;

  /// When set, the tracker becomes ISP-aware (the design the paper's
  /// related-work section attributes to Wu et al. [28]): replies list
  /// members from the requester's ISP first. PPLive's real trackers have
  /// no such logic — the paper's point is that locality emerges without it
  /// — so this is off by default and exists for the comparison benches.
  const net::AsnDatabase* locality_db = nullptr;
};

/// Each answered query emits a "tracker_serve" event to the simulator's
/// trace sink; under causal tracing the reply carries a span id parented on
/// the query's span, and the event gains span/parent fields.
class TrackerServer {
 public:
  using Config = TrackerConfig;

  static constexpr sim::Time kEntryTtl = sim::Time::minutes(3);
  static constexpr sim::Time kProcessingDelay = sim::Time::millis(2);

  /// Attaches itself to the network under `identity`.
  TrackerServer(sim::Simulator& simulator, PeerTransport& network,
                const HostIdentity& identity, sim::Rng rng,
                Config config = {});
  ~TrackerServer();

  TrackerServer(const TrackerServer&) = delete;
  TrackerServer& operator=(const TrackerServer&) = delete;

  net::IpAddress ip() const { return identity_.ip; }

  /// Fault-injection seam: a dark tracker silently drops every query — the
  /// server is unreachable, exactly as a client experiences a regional
  /// tracker outage over UDP. Membership entries keep aging out while dark.
  void set_dark(bool dark) { dark_ = dark; }
  bool dark() const { return dark_; }

  /// Number of live (unexpired) members of a channel as of now.
  std::size_t member_count(ChannelId channel);

  std::uint64_t queries_served() const { return queries_served_; }

 private:
  void handle(const PeerTransport::Delivery& delivery);
  void refresh(ChannelId channel, net::IpAddress member);
  void expire(ChannelId channel);

  struct Entry {
    net::IpAddress ip;
    sim::Time last_seen;
  };

  sim::Simulator& simulator_;
  PeerTransport& network_;
  HostIdentity identity_;
  sim::Rng rng_;
  Config config_;
  bool dark_ = false;
  std::uint64_t queries_served_ = 0;
  // channel -> member entries (channel populations are small enough that
  // linear expiry scans are cheaper than index maintenance)
  std::unordered_map<ChannelId, std::vector<Entry>> members_;
};

}  // namespace ppsim::proto
