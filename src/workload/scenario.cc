#include "workload/scenario.h"

namespace ppsim::workload {

net::IspCategory IspMix::sample(sim::Rng& rng) const {
  std::vector<double> w(weights.begin(), weights.end());
  return static_cast<net::IspCategory>(rng.weighted_index(w));
}

ScenarioSpec popular_channel() {
  ScenarioSpec s;
  s.name = "popular";
  s.channel = proto::ChannelSpec{1, "popular-live", 400e3, 1380, 4};
  s.viewers = 420;
  s.mix[net::IspCategory::kTele] = 0.56;
  s.mix[net::IspCategory::kCnc] = 0.19;
  s.mix[net::IspCategory::kCer] = 0.02;
  s.mix[net::IspCategory::kOtherCn] = 0.11;
  s.mix[net::IspCategory::kForeign] = 0.12;
  s.mean_session = sim::Time::minutes(30);
  return s;
}

ScenarioSpec unpopular_channel() {
  ScenarioSpec s;
  s.name = "unpopular";
  s.channel = proto::ChannelSpec{2, "unpopular-live", 400e3, 1380, 4};
  s.viewers = 64;
  s.mix[net::IspCategory::kTele] = 0.37;
  s.mix[net::IspCategory::kCnc] = 0.45;
  s.mix[net::IspCategory::kCer] = 0.02;
  s.mix[net::IspCategory::kOtherCn] = 0.14;
  s.mix[net::IspCategory::kForeign] = 0.004;
  // Short zappy sessions: a thin channel churns hard, which is what keeps
  // its same-ISP peer supply scarce (the paper's explanation for the worse
  // locality of unpopular programs).
  s.mean_session = sim::Time::minutes(12);
  return s;
}

net::AccessClass access_class_for(net::IspCategory c, sim::Rng& rng) {
  switch (c) {
    case net::IspCategory::kCer:
      return net::AccessClass::kCampus;
    case net::IspCategory::kForeign:
      // Mostly residential cable abroad, a few campus users.
      return rng.chance(0.12) ? net::AccessClass::kCampus
                              : net::AccessClass::kCable;
    default:
      // Chinese commercial ISPs circa 2008: predominantly residential ADSL,
      // plus a meaningful tier of better-provisioned endpoints (internet
      // cafés, FTTB business fiber) that act as the swarm's strong servers
      // *within each ISP* — strong, but not bottomless, so same-ISP supply
      // can still run out on thin channels.
      return rng.chance(0.10) ? net::AccessClass::kFiber
                              : net::AccessClass::kAdsl;
  }
}

double nat_probability(net::AccessClass c) {
  switch (c) {
    case net::AccessClass::kAdsl:
      return 0.65;
    case net::AccessClass::kCable:
      return 0.70;
    case net::AccessClass::kCampus:
      return 0.15;
    case net::AccessClass::kFiber:
      return 0.30;
    case net::AccessClass::kDatacenter:
      return 0.0;
  }
  return 0.0;
}

}  // namespace ppsim::workload
