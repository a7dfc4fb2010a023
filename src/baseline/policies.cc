#include "baseline/policies.h"

#include <algorithm>
#include <cassert>

namespace ppsim::baseline {

std::vector<net::IpAddress> TrackerOnlyPolicy::choose(
    std::span<const net::IpAddress> fresh,
    std::span<const net::IpAddress> pool,
    std::span<const net::IpAddress> excluded, std::size_t want,
    sim::Rng& rng) {
  std::vector<net::IpAddress> out;
  proto::sample_eligible(fresh, excluded, want, rng, out);
  proto::sample_eligible(pool, excluded, want, rng, out);
  return out;
}

std::vector<net::IpAddress> IspBiasedPolicy::choose(
    std::span<const net::IpAddress> fresh,
    std::span<const net::IpAddress> pool,
    std::span<const net::IpAddress> excluded, std::size_t want,
    sim::Rng& rng) {
  assert(std::is_sorted(excluded.begin(), excluded.end()));
  // Partition the union of fresh+pool into same-ISP and other.
  std::vector<net::IpAddress> same, other;
  auto consider = [&](std::span<const net::IpAddress> span) {
    for (const auto& ip : span) {
      if (std::binary_search(excluded.begin(), excluded.end(), ip)) continue;
      if (db_.category_or_foreign(ip) == own_category_)
        same.push_back(ip);
      else
        other.push_back(ip);
    }
  };
  consider(fresh);
  consider(pool);

  std::vector<net::IpAddress> out;
  while (out.size() < want && (!same.empty() || !other.empty())) {
    const bool pick_same =
        !same.empty() && (other.empty() || rng.chance(bias_));
    auto& bucket = pick_same ? same : other;
    if (bucket.empty()) break;
    const std::size_t idx =
        static_cast<std::size_t>(rng.next_below(bucket.size()));
    const net::IpAddress ip = bucket[idx];
    bucket[idx] = bucket.back();
    bucket.pop_back();
    if (std::find(out.begin(), out.end(), ip) == out.end()) out.push_back(ip);
  }
  return out;
}

std::vector<net::IpAddress> NoRushPolicy::choose(
    std::span<const net::IpAddress> fresh,
    std::span<const net::IpAddress> pool,
    std::span<const net::IpAddress> excluded, std::size_t want,
    sim::Rng& rng) {
  (void)fresh;  // arrival-time information is deliberately ignored
  std::vector<net::IpAddress> out;
  proto::sample_eligible(pool, excluded, want, rng, out);
  return out;
}

std::string_view to_string(Strategy s) {
  switch (s) {
    case Strategy::kPplive:
      return "pplive-referral";
    case Strategy::kTrackerOnly:
      return "tracker-only";
    case Strategy::kIspBiased:
      return "isp-biased-oracle";
    case Strategy::kNoRush:
      return "no-rush-referral";
  }
  return "?";
}

std::unique_ptr<proto::SelectionPolicy> make_policy(Strategy s,
                                                    const net::AsnDatabase* db,
                                                    net::IspCategory category) {
  switch (s) {
    case Strategy::kPplive:
      return proto::make_default_policy();
    case Strategy::kTrackerOnly:
      return std::make_unique<TrackerOnlyPolicy>();
    case Strategy::kIspBiased:
      if (db == nullptr) return proto::make_default_policy();
      return std::make_unique<IspBiasedPolicy>(*db, category);
    case Strategy::kNoRush:
      return std::make_unique<NoRushPolicy>();
  }
  return proto::make_default_policy();
}

}  // namespace ppsim::baseline
