#pragma once

#include <memory>

#include "net/asn_db.h"
#include "proto/selection.h"

namespace ppsim::baseline {

/// BitTorrent-style membership: the client never gossips with neighbors and
/// relies exclusively on tracker samples. Candidate picks stay uniformly
/// random. The paper argues (Sections 1 and 4) that this is exactly the
/// regime where topology-blind selection wastes cross-ISP bandwidth; this
/// policy lets the claim be measured under identical network conditions.
class TrackerOnlyPolicy final : public proto::SelectionPolicy {
 public:
  bool use_neighbor_referral() const override { return false; }
  bool latency_optimize() const override { return false; }
  std::vector<net::IpAddress> choose(
      std::span<const net::IpAddress> fresh,
      std::span<const net::IpAddress> pool,
      std::span<const net::IpAddress> excluded, std::size_t want,
      sim::Rng& rng) override;
};

/// Oracle ISP-biased selection in the spirit of Bindal et al. / P4P: the
/// client magically knows every candidate's ISP (via the ASN database —
/// infrastructure support PPLive does *not* have) and prefers same-ISP
/// candidates with probability `bias`. Upper-bounds what explicit topology
/// awareness could buy.
class IspBiasedPolicy final : public proto::SelectionPolicy {
 public:
  IspBiasedPolicy(const net::AsnDatabase& db, net::IspCategory own_category,
                  double bias = 0.9)
      : db_(db), own_category_(own_category), bias_(bias) {}

  std::vector<net::IpAddress> choose(
      std::span<const net::IpAddress> fresh,
      std::span<const net::IpAddress> pool,
      std::span<const net::IpAddress> excluded, std::size_t want,
      sim::Rng& rng) override;

 private:
  const net::AsnDatabase& db_;
  net::IspCategory own_category_;
  double bias_;
};

/// Ablation of the connect-on-arrival mechanism: referral gossip stays on,
/// but candidates are only drawn (uniformly) on the periodic top-up tick,
/// so response-time differences can no longer decide who becomes a
/// neighbor. If the paper's explanation is right, locality should collapse
/// toward the channel's population mix under this policy.
class NoRushPolicy final : public proto::SelectionPolicy {
 public:
  bool connect_on_arrival() const override { return false; }
  bool latency_optimize() const override { return false; }
  std::vector<net::IpAddress> choose(
      std::span<const net::IpAddress> fresh,
      std::span<const net::IpAddress> pool,
      std::span<const net::IpAddress> excluded, std::size_t want,
      sim::Rng& rng) override;
};

/// Named strategy set used by the ablation bench and examples.
enum class Strategy {
  kPplive,       // ReferralSelection (the measured behaviour)
  kTrackerOnly,  // BitTorrent-style
  kIspBiased,    // oracle locality
  kNoRush,       // referral without connect-on-arrival
};

std::string_view to_string(Strategy s);

/// Factory; `db`/`category` are only used by kIspBiased.
std::unique_ptr<proto::SelectionPolicy> make_policy(
    Strategy s, const net::AsnDatabase* db = nullptr,
    net::IspCategory category = net::IspCategory::kForeign);

}  // namespace ppsim::baseline
