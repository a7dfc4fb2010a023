#pragma once

#include <array>
#include <memory>
#include <vector>

#include "baseline/policies.h"
#include "capture/analyzer.h"
#include "faults/plan.h"
#include "net/interconnect.h"
#include "net/asn_db.h"
#include "net/isp.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/resource_probe.h"
#include "obs/sampler.h"
#include "obs/span_tracker.h"
#include "obs/trace.h"
#include "proto/counters.h"
#include "proto/peer_config.h"
#include "workload/scenario.h"

namespace ppsim::core {

/// Opt-in observability sinks for a run. Every pointer is borrowed (the
/// caller owns the sink and must keep it alive through run_experiment) and
/// defaults to off; a default-constructed config costs the run nothing.
///
/// What a config implies is decided once, at the top of the run:
///  * Sampling: the sampling tick runs every `sample_period`. Left at zero,
///    it runs every 10 s when anything that rides it is attached (non-empty
///    `health_rules`, `recorder`, `resource` or `samples_stream`), and not
///    at all otherwise.
///  * Causal tracing is on exactly when `spans` is set.
///  * Trace fan-out: protocol, fault and health events go to `trace`,
///    `recorder` and `spans`; sim_event rows go to `trace` and `recorder`
///    only (the span tracker has no use for them). `trace` must not be the
///    recorder: the runner feeds the recorder itself. The fan-out and the
///    causal switch go to the simulator in one sim::Simulator::set_tracing
///    call; every protocol entity and the fault driver read them there.
///  * Dispatch counts: with `health_rules` and `metrics` both set, the
///    runner attaches its own untimed obs::RunProfiler and exports its
///    sim_events_dispatched{category} / sim_peak_queue_depth at run end.
///  * Metrics are published when read: the runner copies the counts each
///    component keeps into the recorder's registry right before a
///    post-mortem bundle snapshots it, and into `metrics` once at run end.
struct ObservabilityConfig {
  /// Filled at run end: bytes_uploaded{src_isp,dst_isp} from the traffic
  /// matrix, the fault, health, post-mortem and resource-probe series of
  /// the components the run has, peer_* counters per ISP, swarm gauges
  /// and session histograms.
  obs::MetricsRegistry* metrics = nullptr;
  /// Protocol event stream (tracker/gossip/connect/data events from every
  /// peer, tracker, and source). Sim-timestamps only: same seed, same
  /// config => byte-identical trace.
  obs::TraceSink* trace = nullptr;
  /// Additionally emit one "sim_event" row per executed simulator event
  /// (sequence, category, queue depth). High volume.
  bool trace_sim_events = false;
  /// Wall-clock per-category profile of the run (see obs::RunProfiler).
  obs::RunProfiler* profiler = nullptr;
  /// Cadence of the sampling tick, which snapshots the traffic matrix /
  /// neighbor composition / continuity into ExperimentResult::samples.
  sim::Time sample_period = sim::Time::zero();
  /// Watchdog rules evaluated on every sampling tick (obs::HealthMonitor);
  /// nullptr/empty disables the monitor. The summary lands on
  /// ExperimentResult::health.
  const obs::HealthRuleSet* health_rules = nullptr;
  /// Flight recorder for post-mortem bundles. The runner feeds it every
  /// trace row and every sampling tick's TrafficSample, wires the health
  /// monitor's critical hook to FlightRecorder::trigger, and sets its
  /// pre-dump hook so each bundle holds the counts of its moment.
  obs::FlightRecorder* recorder = nullptr;
  /// Online span-tree consumer; attaching one turns on causal tracing
  /// (docs/OBSERVABILITY.md): every protocol entity allocates span ids for
  /// its outgoing discovery/data messages, trace events gain span/parent
  /// (and referral-provenance) fields, and the startup milestone events
  /// (join_reply, chunk_delivered, playback_start, bootstrap_serve) are
  /// emitted. Read its lineage / referral-share / critical-path summaries
  /// from the tracker after the run.
  obs::SpanTracker* spans = nullptr;
  /// Receives each sample as an NDJSON row (write_sample_ndjson) the
  /// moment it is recorded, so the stream ends byte-identical to
  /// write_samples_ndjson(ExperimentResult::samples).
  std::ostream* samples_stream = nullptr;
  /// Host-resource / scheduler telemetry, sampled on the sampling tick.
  /// Wall-clock inputs are read from `profiler` when one is attached.
  obs::ResourceProbe* resource = nullptr;
  /// Live stderr heartbeat, emitted every progress_period of sim time. Its
  /// wall, rate and ETA columns need `profiler`.
  obs::ProgressMeter* progress = nullptr;
  sim::Time progress_period = sim::Time::seconds(30);
};

/// Declarative fault schedule for a run (src/faults, docs/FAULTS.md).
/// Empty by default — a config without a plan runs byte-identically to
/// builds that predate the fault subsystem.
struct FaultPlanConfig {
  faults::FaultPlan plan;
  /// Seeds the fault driver's private RNG (victim sampling for churn
  /// bursts / brownouts). 0 (the default) derives one deterministically
  /// from the run seed, so same (seed, plan) => same fault trajectory; a
  /// nonzero value varies the victims while holding the run seed fixed.
  std::uint64_t fault_seed = 0;
};

/// A probe host: an instrumented client in a chosen ISP, equivalent to the
/// paper's Wireshark-monitored deployments (2x TELE, 2x CNC, 2x CERNET in
/// China; 2x university hosts in the USA).
struct ProbeSpec {
  net::IspCategory isp = net::IspCategory::kTele;
  net::AccessClass access = net::AccessClass::kAdsl;
  std::string label;
};

ProbeSpec tele_probe();
ProbeSpec cnc_probe();
ProbeSpec cer_probe();
ProbeSpec mason_probe();  // US campus host ("Mason" in the paper)

struct ExperimentConfig {
  workload::ScenarioSpec scenario;
  std::vector<ProbeSpec> probes;
  /// Selection strategy applied to every client (probes included);
  /// kPplive reproduces the measured system, the others are ablations.
  baseline::Strategy strategy = baseline::Strategy::kPplive;
  proto::PeerConfig peer_config;
  /// Makes the trackers ISP-aware (same-ISP-first replies) — the
  /// infrastructure-assisted design of the paper's related work, for
  /// comparison against the emergent locality. Off in the reproduction.
  bool locality_aware_trackers = false;
  /// Retain each probe's raw packet trace in the result (for archival or
  /// custom analysis); off by default to keep results lean.
  bool keep_traces = false;
  /// Probes join after the audience ramp so they measure a warm swarm.
  sim::Time probe_join_at = sim::Time::seconds(100);
  /// Optional shared inter-ISP bottlenecks (emergent cross-ISP congestion);
  /// unset in the calibrated reproduction.
  std::optional<net::InterconnectConfig> interconnects;
  /// Opt-in metrics/trace/sampling/profiling sinks; off by default.
  ObservabilityConfig observability;
  /// Scheduled impairments; empty (no faults) by default.
  FaultPlanConfig faults;
};

/// Swarm-wide ground truth gathered through the network's global tap —
/// unavailable to a real measurement study, used here for validation and
/// for the strategy ablation.
struct TrafficMatrix {
  // bytes[i][j]: DataReply payload bytes flowing from ISP i to ISP j.
  std::array<std::array<std::uint64_t, net::kNumIspCategories>,
             net::kNumIspCategories>
      bytes{};

  std::uint64_t total() const;
  std::uint64_t intra_isp() const;
  std::uint64_t cross_isp() const { return total() - intra_isp(); }
  double locality() const;
};

struct ProbeResult {
  std::string label;
  net::IpAddress ip;
  net::IspCategory category = net::IspCategory::kTele;
  capture::TraceAnalysis analysis;
  proto::PeerCounters counters;
  /// Raw capture, kept only when ExperimentConfig::keep_traces is set
  /// (e.g. for archival via capture::write_trace_file).
  std::shared_ptr<capture::PacketTrace> trace;
};

struct SwarmStats {
  std::uint64_t peers_spawned = 0;
  std::uint64_t departures = 0;
  double avg_continuity = 0;  // mean playback continuity over all viewers
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t events_executed = 0;
  /// Peak number of simultaneously pending events
  /// (sim::Simulator::peak_pending_events).
  std::uint64_t peak_queue_depth = 0;
};

/// One viewer's session, for churn/workload characterization (the paper
/// positions its measurements as "a basis to generate practical P2P
/// streaming workloads"; these records are that basis from the simulated
/// side).
struct SessionRecord {
  proto::ChannelId channel = 0;
  net::IspCategory category = net::IspCategory::kTele;
  bool behind_nat = false;
  sim::Time joined;
  sim::Time left;            // == run end for sessions still active
  bool completed = false;    // left before the run ended
  std::uint64_t bytes_downloaded = 0;
  std::uint64_t bytes_uploaded = 0;
  double continuity = 0;

  double duration_seconds() const { return (left - joined).as_seconds(); }
};

struct ExperimentResult {
  std::vector<ProbeResult> probes;
  TrafficMatrix traffic;  // data-plane ground truth
  SwarmStats swarm;
  std::vector<SessionRecord> sessions;  // one per audience viewer
  /// Swarm-wide counter aggregates (every peer, probes included), summed
  /// with PeerCounters::operator+= so no field can be silently dropped.
  proto::PeerCounters counter_totals;
  std::array<proto::PeerCounters, net::kNumIspCategories> counters_by_isp{};
  /// Every periodic swarm snapshot of the run; empty unless the sampling
  /// tick ran (the Figure-6-style time-series source).
  std::vector<obs::TrafficSample> samples;
  /// Fault-driver summary; all zero when no fault plan was configured.
  std::uint64_t fault_windows_applied = 0;
  std::uint64_t fault_windows_reverted = 0;
  std::uint64_t fault_peers_crashed = 0;
  /// Watchdog digest; empty (worst=ok, no rules) unless
  /// observability.health_rules was set.
  obs::HealthSummary health;
};

/// Builds the topology, servers, audience, and probes; runs the simulation
/// for scenario.duration; returns per-probe trace analyses plus swarm
/// ground truth. Deterministic in scenario.seed.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace ppsim::core
