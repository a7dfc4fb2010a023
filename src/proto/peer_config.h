#pragma once

#include <cstdint>

#include "sim/time.h"

namespace ppsim::proto {

/// The protocol knobs of a client that experiments and tests vary,
/// defaulted to the values the paper reverse-engineered from PPLive 1.9
/// (gossip every 20 s, peer lists of at most 60 addresses) plus standard
/// mesh-pull parameters. The client's fixed timers and limits (tracker
/// queries decaying to once per 5 minutes once playback is healthy, the
/// request scheduler, the resilience timers) are the constants below it.
struct PeerConfig {
  // --- membership / gossip ---
  sim::Time gossip_period = sim::Time::seconds(20);  // paper Section 2
  int gossip_fanout = 2;           // neighbors probed per gossip round
  int max_list_size = 60;          // paper: "no more than 60 IP addresses"
  int candidate_pool_limit = 600;  // learned-but-unconnected peers kept

  // --- tracker interaction ---
  /// Neighbor count above which playback is considered "satisfactory" and
  /// tracker querying drops to the steady (5-minute) period.
  int healthy_neighbors = 8;

  // --- neighborhood ---
  int max_neighbors = 28;
  int min_neighbors = 12;       // top-up target
  int connect_batch = 5;        // attempts per arriving list (paper: "a number")
  sim::Time neighbor_idle_timeout = sim::Time::seconds(75);
  /// Neighborhood turnover: every period, the slowest neighbor (by EWMA
  /// latency) above the min_neighbors floor is dropped and its slot refilled
  /// from referred candidates. This is what lets response-time differences
  /// reshape *membership* (not just request routing) and drives the paper's
  /// "triangle construction" clustering.
  sim::Time optimize_period = sim::Time::seconds(15);
  /// Newly connected neighbors are exempt from optimization this long.
  sim::Time optimize_grace = sim::Time::seconds(20);

  // --- data plane ---
  /// Weight of a neighbor in scheduling is (1s / ewma_latency)^selectivity:
  /// higher selectivity concentrates requests on the fastest neighbors.
  double latency_selectivity = 3.0;

  // --- resilience (fault tolerance; docs/FAULTS.md) ---
  /// Consecutive all-group tracker sweeps with no reply before the query
  /// period starts backing off (a dark tracker region should be probed,
  /// not hammered at the initial cadence). Any tracker reply resets it.
  int tracker_backoff_after = 3;

  // --- connectivity ---
  /// Client sits behind a NAT/firewall without traversal: it can initiate
  /// connections but silently ignores ConnectQuery from strangers (2008
  /// residential reality for most ADSL/cable subscribers). Established
  /// connections work both ways (the pinhole is open).
  bool behind_nat = false;
};

// --- tracker interaction ---
inline constexpr sim::Time kTrackerPeriodInitial = sim::Time::seconds(30);
// paper Section 2
inline constexpr sim::Time kTrackerPeriodSteady = sim::Time::minutes(5);

// --- neighborhood ---
inline constexpr sim::Time kConnectTimeout = sim::Time::seconds(3);
inline constexpr sim::Time kTopupPeriod = sim::Time::seconds(10);

// --- data plane ---
inline constexpr sim::Time kRequestTick = sim::Time::millis(200);
inline constexpr sim::Time kRequestTimeout = sim::Time::millis(2500);
// in-flight chunk requests per neighbor
inline constexpr int kPipelinePerNeighbor = 6;
// scheduling window past the playback point
inline constexpr int kWindowChunks = 40;
// playback lag vs live edge
inline constexpr sim::Time kStartupBuffer = sim::Time::seconds(8);
inline constexpr sim::Time kBuffermapPeriod = sim::Time::seconds(2);
// chunks kept & advertised
inline constexpr std::uint32_t kChunkRetention = 256;

// --- resilience (fault tolerance; docs/FAULTS.md) ---
/// Per-additional-silent-round multiplier on the query period once the
/// backoff engages (PeerConfig::tracker_backoff_after), capped at
/// kTrackerBackoffMax.
inline constexpr double kTrackerBackoffFactor = 2.0;
inline constexpr sim::Time kTrackerBackoffMax = sim::Time::minutes(4);
/// An established peer (had neighbors before) that has been completely
/// isolated for this long mounts an emergency re-acquisition: an
/// immediate all-group tracker sweep plus a connect burst from the
/// candidate pool. Recovers neighborhoods after a regional blackout
/// faster than the regular 30 s tracker round alone.
inline constexpr sim::Time kReacquireTimeout = sim::Time::seconds(12);
/// Minimum spacing between emergency re-acquisitions.
inline constexpr sim::Time kReacquireCooldown = sim::Time::seconds(30);

// --- misc ---
inline constexpr sim::Time kDnsDelayMin = sim::Time::millis(30);
inline constexpr sim::Time kDnsDelayMax = sim::Time::millis(150);

}  // namespace ppsim::proto
