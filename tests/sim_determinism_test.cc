// Runtime half of the determinism guarantee (the static half is the
// ppsim-audit framework, tools/lint/): the same seed must produce a bit-identical event
// stream. Each scenario is run twice and the full delivered-datagram
// stream — timestamps, endpoints, sizes, payload kinds, in order — is
// folded into a hash; the runs must agree exactly. Distinct seeds must
// diverge, proving the hash actually covers the stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/policies.h"
#include "core/experiment.h"
#include "faults/plan.h"
#include "obs/span_tracker.h"
#include "obs/trace.h"
#include "obs_testutil.h"
#include "proto/counters.h"
#include "proto_testutil.h"
#include "sim/rng.h"
#include "workload/scenario.h"

namespace ppsim {
namespace {

using proto::testing::MiniWorld;

/// Runs a small swarm (one source, one tracker, five clients across three
/// ISP categories) and hashes every delivered datagram through the
/// network's global tap.
std::uint64_t mini_world_stream_hash(std::uint64_t seed) {
  MiniWorld world{seed};
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  world.network().set_global_tap(
      [&](const net::Endpoint& from, const net::Endpoint& to,
          const proto::Message& m, std::uint64_t bytes) {
        h = sim::hash_combine(
            h, static_cast<std::uint64_t>(world.network().now().as_micros()));
        h = sim::hash_combine(h, from.ip.value());
        h = sim::hash_combine(h, to.ip.value());
        h = sim::hash_combine(h, static_cast<std::uint64_t>(m.index()));
        h = sim::hash_combine(h, bytes);
      });
  std::vector<proto::Peer*> peers;
  peers.push_back(&world.add_peer(net::IspCategory::kTele));
  peers.push_back(&world.add_peer(net::IspCategory::kTele));
  peers.push_back(&world.add_peer(net::IspCategory::kCnc));
  peers.push_back(&world.add_peer(net::IspCategory::kCnc));
  peers.push_back(&world.add_peer(net::IspCategory::kForeign));
  for (auto* p : peers) p->join();
  world.simulator().run_until(sim::Time::minutes(2));
  // Fold in end-state observables so divergence after the last datagram
  // would be caught too.
  for (auto* p : peers) {
    h = sim::hash_combine(h, p->counters().bytes_downloaded);
    h = sim::hash_combine(h, p->counters().chunks_played);
    for (const auto& ip : p->neighbor_ips())
      h = sim::hash_combine(h, ip.value());
  }
  h = sim::hash_combine(h, world.simulator().events_executed());
  return h;
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalStreams) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::uint64_t first = mini_world_stream_hash(seed);
    const std::uint64_t second = mini_world_stream_hash(seed);
    EXPECT_EQ(first, second) << "seed " << seed
                             << ": repeated run diverged — the event core "
                                "leaked non-determinism";
  }
}

TEST(DeterminismTest, DistinctSeedsProduceDistinctStreams) {
  // Guards against a degenerate hash (or a seed that never reaches the
  // RNG): every pair of seeds 1..5 must disagree.
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    hashes.push_back(mini_world_stream_hash(seed));
  for (std::size_t i = 0; i < hashes.size(); ++i)
    for (std::size_t j = i + 1; j < hashes.size(); ++j)
      EXPECT_NE(hashes[i], hashes[j])
          << "seeds " << i + 1 << " and " << j + 1 << " collided";
}

/// Hash of everything run_experiment reports: the swarm ground truth, the
/// probe's trace analysis inputs, and every session record.
std::uint64_t experiment_hash(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.scenario = workload::popular_channel();
  config.scenario.viewers = 40;
  config.scenario.duration = sim::Time::minutes(3);
  config.scenario.seed = seed;
  config.probes = {core::tele_probe()};
  const auto result = core::run_experiment(config);

  std::uint64_t h = 0;
  for (const auto& row : result.traffic.bytes)
    for (const auto b : row) h = sim::hash_combine(h, b);
  h = sim::hash_combine(h, result.swarm.events_executed);
  h = sim::hash_combine(h, result.swarm.packets_delivered);
  h = sim::hash_combine(h, result.swarm.peers_spawned);
  for (const auto& probe : result.probes) {
    h = sim::hash_combine(h, probe.ip.value());
    h = sim::hash_combine(h, probe.counters.bytes_downloaded);
    h = sim::hash_combine(h, probe.counters.data_requests_sent);
  }
  for (const auto& s : result.sessions) {
    h = sim::hash_combine(h,
                          static_cast<std::uint64_t>(s.joined.as_micros()));
    h = sim::hash_combine(h, s.bytes_downloaded);
  }
  return h;
}

TEST(DeterminismTest, NeighborTraversalIsIpOrdered) {
  // Regression for the unordered→ordered container switch in proto: peer
  // neighbor state iterates in IP order, never hash order, so peer lists,
  // buffer-map fanout, and victim selection are independent of the standard
  // library's hash seed. neighbor_ips() surfaces the traversal order
  // directly — it must come back sorted.
  MiniWorld world{3};
  std::vector<proto::Peer*> peers;
  for (int i = 0; i < 6; ++i)
    peers.push_back(&world.add_peer(i % 2 == 0 ? net::IspCategory::kTele
                                               : net::IspCategory::kCnc));
  for (auto* p : peers) p->join();
  world.simulator().run_until(sim::Time::minutes(2));
  std::size_t checked = 0;
  for (auto* p : peers) {
    const auto ips = p->neighbor_ips();
    if (ips.size() >= 2) ++checked;
    EXPECT_TRUE(std::is_sorted(ips.begin(), ips.end()));
  }
  ASSERT_GT(checked, 0u) << "no peer built a multi-neighbor view to check";
}

TEST(DeterminismTest, FullExperimentIsSeedReproducible) {
  // The whole stack — workload generation, churn, capture, analysis —
  // must be a pure function of the seed.
  EXPECT_EQ(experiment_hash(7), experiment_hash(7));
  EXPECT_NE(experiment_hash(7), experiment_hash(8));
}

/// Serialized NDJSON trace of a seeded experiment: every protocol event
/// from every peer, tracker, and source, in execution order.
std::string experiment_trace(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.scenario = workload::unpopular_channel();
  config.scenario.viewers = 25;
  config.scenario.duration = sim::Time::minutes(2);
  config.scenario.seed = seed;
  config.probes = {core::tele_probe()};
  std::ostringstream os;
  obs::NdjsonTraceSink sink(os);
  config.observability.trace = &sink;
  core::run_experiment(config);
  return os.str();
}

TEST(DeterminismTest, TraceIsByteIdenticalAcrossSameSeedRuns) {
  // The trace carries sim-timestamps, IPs, and chunk numbers but no
  // wall-clock and no addresses, so two same-seed runs must serialize to
  // exactly the same bytes — the strongest observable determinism check:
  // any divergence anywhere in the event stream lands in some line.
  const std::string first = experiment_trace(7);
  const std::string second = experiment_trace(7);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed traces diverged";
}

TEST(DeterminismTest, TraceDivergesAcrossSeeds) {
  // Proves the trace actually covers the run (a constant or empty trace
  // would pass the identity check vacuously).
  EXPECT_NE(experiment_trace(7), experiment_trace(8));
}

/// FNV-1a over the integer outputs benchsuite's run digest folds: the
/// ISP-pair traffic matrix, every summed peer counter, and the swarm's
/// event, packet and spawn counts. Integers only, so a pin is as portable
/// across compilers and hosts as benchsuite/digests.json.
std::uint64_t output_digest(const core::ExperimentResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& row : r.traffic.bytes)
    for (const auto b : row) add(b);
  proto::for_each_field(r.counter_totals,
                        [&](const char*, const std::uint64_t& v) { add(v); });
  add(r.swarm.events_executed);
  add(r.swarm.packets_delivered);
  add(r.swarm.packets_dropped);
  add(r.swarm.peers_spawned);
  return h;
}

/// A tracker outage, a CNC blackout long enough to idle out every
/// neighbor (so isolated peers mount emergency re-acquisitions), and a
/// churn burst.
faults::FaultPlan outage_blackout_churn_plan() {
  faults::FaultPlan plan;
  faults::FaultWindow outage;
  outage.kind = faults::FaultKind::kTrackerOutage;
  outage.start = sim::Time::seconds(30);
  outage.end = sim::Time::seconds(90);
  plan.windows.push_back(outage);
  faults::FaultWindow blackout;
  blackout.kind = faults::FaultKind::kBlackout;
  blackout.start = sim::Time::seconds(50);
  blackout.end = sim::Time::seconds(140);
  blackout.category_a = net::IspCategory::kCnc;
  plan.windows.push_back(blackout);
  faults::FaultWindow burst;
  burst.kind = faults::FaultKind::kChurnBurst;
  burst.start = burst.end = sim::Time::seconds(100);
  burst.fraction = 0.3;
  plan.windows.push_back(burst);
  return plan;
}

struct PinnedCase {
  const char* name;
  std::uint64_t seed;
  baseline::Strategy strategy;
  bool causal;
  bool faults;
  std::uint64_t digest;
  /// A trace event the run must emit, proving the case reached the path
  /// it pins (nullptr: no check).
  const char* must_emit;
};

TEST(DeterminismTest, MatchesPinnedDigests) {
  // Cross-version oracle: unlike the same-binary checks above, these
  // constants were computed once and must hold on every later version.
  // A change that claims to preserve behaviour (a container swap, a
  // hot-path rewrite) keeps them; one that changes behaviour on purpose
  // re-pins them and says why. The cases cover what the benchmark digests
  // do not: causal tracing, every selection strategy, and fault plans
  // (emergency re-acquisition after a blackout).
  const PinnedCase cases[] = {
      {"causal", 1, baseline::Strategy::kPplive, true, false,
       0x57699ee7d77c4426ULL, "playback_start"},
      {"pplive", 2, baseline::Strategy::kPplive, false, false,
       0xfc93a1fbc42c8452ULL, nullptr},
      {"tracker-only", 3, baseline::Strategy::kTrackerOnly, false, false,
       0xc629f7d5a354a1b9ULL, nullptr},
      {"isp-biased", 4, baseline::Strategy::kIspBiased, false, false,
       0xb80f3aebbfbb4558ULL, nullptr},
      {"no-rush", 5, baseline::Strategy::kNoRush, false, false,
       0x90def2d7271141aeULL, nullptr},
      {"faults", 6, baseline::Strategy::kPplive, false, true,
       0x9d3b23666afee761ULL, "peer_reacquire"},
  };
  for (const PinnedCase& c : cases) {
    core::ExperimentConfig config;
    config.scenario = workload::popular_channel();
    config.scenario.viewers = 120;
    config.scenario.duration = sim::Time::minutes(3);
    config.scenario.seed = c.seed;
    config.probes = {core::tele_probe()};
    config.strategy = c.strategy;
    obs::SpanTracker spans;
    if (c.causal) config.observability.spans = &spans;
    if (c.faults) config.faults.plan = outage_blackout_churn_plan();
    obs::CountingTraceSink events;
    if (c.must_emit != nullptr) config.observability.trace = &events;
    const std::uint64_t got = output_digest(core::run_experiment(config));
    EXPECT_EQ(got, c.digest) << c.name << ": digest 0x" << std::hex << got;
    if (c.must_emit != nullptr) {
      EXPECT_GT(events.count(c.must_emit), 0u)
          << c.name << ": no " << c.must_emit << " event";
    }
  }
}

}  // namespace
}  // namespace ppsim
