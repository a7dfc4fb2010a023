#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/bandwidth.h"
#include "net/isp.h"
#include "proto/channel.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ppsim::workload {

/// Fraction of a channel's audience in each reporting ISP. Does not need to
/// sum to 1; it is normalized when sampled.
struct IspMix {
  std::array<double, net::kNumIspCategories> weights{};

  double& operator[](net::IspCategory c) {
    return weights[static_cast<std::size_t>(c)];
  }
  double operator[](net::IspCategory c) const {
    return weights[static_cast<std::size_t>(c)];
  }

  net::IspCategory sample(sim::Rng& rng) const;
};

/// How the audience size evolves over the run.
enum class AudienceCurve : std::uint8_t {
  /// Stationary population: departures are replaced, size is roughly
  /// constant (the regime of most of the paper's analysis windows).
  kStationary = 0,
  /// Broadcast event: the audience floods in around the program start,
  /// grows through the first half, and drains toward the end — the arc
  /// behind the load-driven response-time inflation of Figure 7(a).
  kBroadcastEvent = 1,
};

/// Full description of one simulated viewing session of the swarm: who
/// watches (population + ISP mix), what they watch (channel), and how the
/// audience churns.
struct ScenarioSpec {
  std::string name;
  proto::ChannelSpec channel;

  /// Steady-state audience size, excluding probe hosts.
  int viewers = 300;
  IspMix mix;

  /// Audience arrives over this ramp at the start of the run (the probes
  /// join an already-warm swarm, like the paper's measurements of ongoing
  /// broadcasts).
  sim::Time arrival_ramp = sim::Time::seconds(90);

  /// Mean viewer session length; sessions are Weibull(k=0.6) shaped —
  /// media-session lengths are heavy-tailed (many zappers, few stayers).
  /// A departing viewer is replaced after an exponential think time so the
  /// population stays roughly stationary.
  sim::Time mean_session = sim::Time::minutes(25);
  sim::Time mean_rejoin_gap = sim::Time::seconds(20);

  /// Total simulated time.
  sim::Time duration = sim::Time::minutes(20);

  AudienceCurve curve = AudienceCurve::kStationary;

  std::uint64_t seed = 1;
};

/// The popular live channel of the paper's figures: audience concentrated
/// in ChinaTelecom (Figure 2(a): ~70% of returned addresses are TELE),
/// with a modest foreign audience.
ScenarioSpec popular_channel();

/// The unpopular channel: a much smaller audience in which CNC viewers
/// slightly outnumber TELE (Figure 3(a)) and foreign viewers are scarce
/// (the paper's explanation for the Mason probe's poor locality, Fig 5).
ScenarioSpec unpopular_channel();

/// Maps a viewer's ISP to a plausible access technology (ADSL for Chinese
/// residential ISPs, campus Ethernet for CERNET, cable/campus abroad).
net::AccessClass access_class_for(net::IspCategory c, sim::Rng& rng);

/// Probability that a viewer on this access technology sits behind a NAT
/// that drops unsolicited inbound connections (2008-era residential CPE).
double nat_probability(net::AccessClass c);

}  // namespace ppsim::workload
