#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/ip.h"
#include "sim/rng.h"

namespace ppsim::proto {

/// Strategy hook deciding which candidate peers a client attempts to
/// connect to. The PPLive behaviour the paper observes is the default
/// (`ReferralSelection`); the baseline library provides tracker-only,
/// ISP-biased-oracle, and no-rush variants so the emergent-locality claim
/// can be ablated.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Whether the client gossips peer lists with neighbors at all. When
  /// false the client relies on trackers alone (BitTorrent-style); it still
  /// *answers* neighbors' gossip queries, as any protocol-compliant node
  /// must.
  virtual bool use_neighbor_referral() const { return true; }

  /// Whether neighborhood retention is latency-driven (periodically dropping
  /// the slowest neighbor). BitTorrent-style policies rotate neighbors
  /// blindly instead (optimistic-unchoke analog), knowing nothing about
  /// network distance.
  virtual bool latency_optimize() const { return true; }

  /// Whether the client starts connection attempts the moment a peer list
  /// arrives (the paper's observed PPLive behaviour, and the mechanism that
  /// turns response-time differences into neighbor locality). When false,
  /// candidates only pool up and are drawn on the periodic top-up tick.
  virtual bool connect_on_arrival() const { return true; }

  /// Picks up to `want` connection targets. `fresh` is the just-arrived
  /// list (empty on top-up ticks); `pool` is the accumulated candidate set,
  /// oldest first; `excluded` holds addresses that must not be chosen (self,
  /// current neighbors, pending handshakes). `excluded` must be sorted
  /// ascending (duplicates allowed): implementations look addresses up in it
  /// with std::binary_search. May return fewer than `want`.
  virtual std::vector<net::IpAddress> choose(
      std::span<const net::IpAddress> fresh,
      std::span<const net::IpAddress> pool,
      std::span<const net::IpAddress> excluded, std::size_t want,
      sim::Rng& rng) = 0;
};

/// The PPLive policy: uniformly random picks, preferring the just-arrived
/// list (the client "randomly selects a number of peers from the list and
/// connects to them immediately"), topping up from the pool.
class ReferralSelection final : public SelectionPolicy {
 public:
  std::vector<net::IpAddress> choose(
      std::span<const net::IpAddress> fresh,
      std::span<const net::IpAddress> pool,
      std::span<const net::IpAddress> excluded, std::size_t want,
      sim::Rng& rng) override;
};

std::unique_ptr<SelectionPolicy> make_default_policy();

/// Shared helper: random sample of `want` eligible addresses from `from`,
/// skipping `excluded` (sorted, as for choose()) and anything already in
/// `taken`.
void sample_eligible(std::span<const net::IpAddress> from,
                     std::span<const net::IpAddress> excluded,
                     std::size_t want, sim::Rng& rng,
                     std::vector<net::IpAddress>& taken);

}  // namespace ppsim::proto
