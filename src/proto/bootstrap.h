#pragma once

#include <map>
#include <vector>

#include "net/ip.h"
#include "proto/host.h"
#include "proto/message.h"
#include "proto/tracker.h"
#include "sim/simulator.h"

namespace ppsim::proto {

/// The bootstrap / channel server (Figure 1, steps 1-4).
///
/// Serves the active channel list, and for a chosen channel returns the
/// playlink (the channel's stream source address) and one tracker address
/// per tracker group, exactly as the paper describes the join sequence.
///
/// Under causal tracing (Simulator::set_tracing) join replies carry a span
/// id parented on the query's span, and each answered join emits a
/// "bootstrap_serve" event with span/parent fields: a causal-only milestone,
/// so a plain trace has none.
class BootstrapServer {
 public:
  struct ChannelEntry {
    ChannelId channel = 0;
    net::IpAddress source;
    /// tracker_groups[g] lists the servers of group g; one per group is
    /// returned to each client, rotated round-robin across requests.
    std::vector<std::vector<net::IpAddress>> tracker_groups;
  };

  static constexpr sim::Time kProcessingDelay = sim::Time::millis(3);

  BootstrapServer(sim::Simulator& simulator, PeerTransport& network,
                  const HostIdentity& identity);
  ~BootstrapServer();

  BootstrapServer(const BootstrapServer&) = delete;
  BootstrapServer& operator=(const BootstrapServer&) = delete;

  void register_channel(ChannelEntry entry);

  net::IpAddress ip() const { return identity_.ip; }
  std::uint64_t joins_served() const { return joins_served_; }

  /// Fault-injection seam: a dark bootstrap drops every request silently;
  /// joining clients keep retrying until the window closes.
  void set_dark(bool dark) { dark_ = dark; }
  bool dark() const { return dark_; }

 private:
  void handle(const PeerTransport::Delivery& delivery);
  void reply(net::IpAddress to, Message m);

  sim::Simulator& simulator_;
  PeerTransport& network_;
  HostIdentity identity_;
  // Ordered so the channel list is served in a stable order.
  std::map<ChannelId, ChannelEntry> channels_;
  bool dark_ = false;
  std::uint64_t rotation_ = 0;
  std::uint64_t joins_served_ = 0;
};

}  // namespace ppsim::proto
