#pragma once

// Shared fixture for protocol-level tests: a tiny deterministic world with
// one bootstrap server, one tracker, one stream source, and helpers to add
// clients. The latency model is made lossless/jitter-free so tests can
// reason about exact behaviour.

#include <memory>
#include <vector>

#include "net/latency.h"
#include "net/prefix_alloc.h"
#include "net/transport.h"
#include "proto/bootstrap.h"
#include "proto/peer.h"
#include "proto/source.h"
#include "proto/tracker.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ppsim::proto::testing {

inline net::LatencyModel quiet_latency() {
  net::LatencyConfig cfg;
  cfg.intra_isp_loss = 0;
  cfg.china_cross_loss = 0;
  cfg.transoceanic_loss = 0;
  cfg.foreign_cross_loss = 0;
  cfg.packet_sigma = 0;
  cfg.pair_sigma = 0;
  return net::LatencyModel(cfg);
}

class MiniWorld {
 public:
  explicit MiniWorld(std::uint64_t seed = 1,
                     ChannelSpec channel = ChannelSpec{1, "test", 400e3, 1380,
                                                       8})
      : rng_(seed),
        registry_(net::IspRegistry::standard_topology()),
        allocator_(registry_),
        network_(simulator_, quiet_latency(), rng_.fork(0)),
        channel_(channel) {
    bootstrap_ = std::make_unique<BootstrapServer>(
        simulator_, network_, identity(net::IspCategory::kTele));
    auto tracker_identity = identity(net::IspCategory::kTele);
    tracker_ = std::make_unique<TrackerServer>(simulator_, network_,
                                               tracker_identity, rng_.fork(1));
    auto source_identity = identity(net::IspCategory::kTele);
    source_identity.profile = net::AccessProfile{1e9, 1e9};
    rng_.next_u64();  // keeps the peers' forks below where they were
    source_ = std::make_unique<StreamSource>(
        simulator_, network_, source_identity, channel_,
        std::vector<net::IpAddress>{tracker_->ip()});

    BootstrapServer::ChannelEntry entry;
    entry.channel = channel_.id;
    entry.source = source_->ip();
    entry.tracker_groups = {{tracker_->ip()}};
    bootstrap_->register_channel(std::move(entry));
    source_->start();
  }

  HostIdentity identity(net::IspCategory category) {
    const auto ids = registry_.in_category(category);
    const net::IspId isp = ids.front();
    net::AccessProfile profile{50e6, 50e6};
    return HostIdentity{allocator_.allocate(isp), isp, category, profile};
  }

  Peer& add_peer(net::IspCategory category, PeerConfig config = {},
                 std::unique_ptr<SelectionPolicy> policy = nullptr) {
    auto id = identity(category);
    peers_.push_back(std::make_unique<Peer>(
        simulator_, network_, id, channel_, bootstrap_->ip(),
        rng_.fork(100 + peers_.size()), config, std::move(policy)));
    return *peers_.back();
  }

  sim::Simulator& simulator() { return simulator_; }
  PeerNetwork& network() { return network_; }
  BootstrapServer& bootstrap() { return *bootstrap_; }
  TrackerServer& tracker() { return *tracker_; }
  StreamSource& source() { return *source_; }
  const ChannelSpec& channel() const { return channel_; }

 private:
  sim::Rng rng_;
  net::IspRegistry registry_;
  net::PrefixAllocator allocator_;
  sim::Simulator simulator_;
  PeerNetwork network_;
  ChannelSpec channel_;
  std::unique_ptr<BootstrapServer> bootstrap_;
  std::unique_ptr<TrackerServer> tracker_;
  std::unique_ptr<StreamSource> source_;
  std::vector<std::unique_ptr<Peer>> peers_;
};

}  // namespace ppsim::proto::testing
