#include "proto/selection.h"

#include <algorithm>
#include <cassert>

namespace ppsim::proto {

void sample_eligible(std::span<const net::IpAddress> from,
                     std::span<const net::IpAddress> excluded,
                     std::size_t want, sim::Rng& rng,
                     std::vector<net::IpAddress>& taken) {
  assert(std::is_sorted(excluded.begin(), excluded.end()));
  if (taken.size() >= want) return;
  std::vector<net::IpAddress> eligible;
  eligible.reserve(from.size());
  for (const auto& ip : from) {
    if (std::binary_search(excluded.begin(), excluded.end(), ip)) continue;
    if (std::find(taken.begin(), taken.end(), ip) != taken.end()) continue;
    eligible.push_back(ip);
  }
  auto picked = rng.sample(std::move(eligible), want - taken.size());
  taken.insert(taken.end(), picked.begin(), picked.end());
}

std::vector<net::IpAddress> ReferralSelection::choose(
    std::span<const net::IpAddress> fresh,
    std::span<const net::IpAddress> pool,
    std::span<const net::IpAddress> excluded, std::size_t want,
    sim::Rng& rng) {
  std::vector<net::IpAddress> out;
  sample_eligible(fresh, excluded, want, rng, out);
  sample_eligible(pool, excluded, want, rng, out);
  return out;
}

std::unique_ptr<SelectionPolicy> make_default_policy() {
  return std::make_unique<ReferralSelection>();
}

}  // namespace ppsim::proto
