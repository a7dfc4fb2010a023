#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "capture/trace.h"
#include "faults/driver.h"
#include "net/impairment.h"
#include "net/latency.h"
#include "net/prefix_alloc.h"
#include "net/transport.h"
#include "proto/bootstrap.h"
#include "proto/peer.h"
#include "proto/source.h"
#include "proto/tracker.h"
#include "sim/simulator.h"

namespace ppsim::core {

ProbeSpec tele_probe() {
  return ProbeSpec{net::IspCategory::kTele, net::AccessClass::kAdsl, "TELE"};
}
ProbeSpec cnc_probe() {
  return ProbeSpec{net::IspCategory::kCnc, net::AccessClass::kAdsl, "CNC"};
}
ProbeSpec cer_probe() {
  return ProbeSpec{net::IspCategory::kCer, net::AccessClass::kCampus, "CER"};
}
ProbeSpec mason_probe() {
  return ProbeSpec{net::IspCategory::kForeign, net::AccessClass::kCampus,
                   "Mason"};
}

std::uint64_t TrafficMatrix::total() const { return obs::matrix_total(bytes); }

std::uint64_t TrafficMatrix::intra_isp() const {
  return obs::matrix_intra_isp(bytes);
}

double TrafficMatrix::locality() const {
  const std::uint64_t t = total();
  return t == 0 ? 0.0
                : static_cast<double>(intra_isp()) / static_cast<double>(t);
}

namespace {

/// Owns the whole simulated world for one run: the bootstrap server, the
/// trackers, the channel's stream source, its audience and the probes.
/// Peers are kept alive (even after leaving) until the run ends, because
/// pending timer callbacks hold raw pointers to them.
///
/// Doubles as the fault driver's FaultHost: it owns every seam a fault
/// window touches (tracker/bootstrap dark bits, the audience roster for
/// churn bursts and brownouts).
class Runner : public faults::FaultHost {
 public:
  explicit Runner(const ExperimentConfig& config)
      : config_(config),
        master_rng_(config.scenario.seed),
        registry_(net::IspRegistry::standard_topology()),
        asn_db_(net::AsnDatabase::from_registry(registry_)),
        allocator_(registry_),
        network_(simulator_, make_latency_model(config.scenario.seed),
                 master_rng_.fork(0x6E6574)) {}

  ExperimentResult run();

  // --- faults::FaultHost (driven by the armed FaultDriver, if any) ---
  void set_tracker_dark(int group, bool dark) override {
    if (group < 0) {
      for (auto& tracker : trackers_) tracker->set_dark(dark);
    } else if (static_cast<std::size_t>(group) < trackers_.size()) {
      trackers_[static_cast<std::size_t>(group)]->set_dark(dark);
    }
  }

  void set_bootstrap_dark(bool dark) override { bootstrap_->set_dark(dark); }

  std::vector<net::IpAddress> alive_audience_ips() const override {
    std::vector<net::IpAddress> out;
    out.reserve(session_peers_.size());
    for (const auto* peer : session_peers_)
      if (peer->alive()) out.push_back(peer->ip());
    std::sort(out.begin(), out.end());
    return out;
  }

  void crash_peer(net::IpAddress ip) override {
    for (std::size_t i = 0; i < session_peers_.size(); ++i) {
      proto::Peer* peer = session_peers_[i];
      if (peer->ip() != ip || !peer->alive()) continue;
      peer->crash();
      sessions_[i].left = simulator_.now();
      sessions_[i].completed = true;
      // A crashed viewer restarts the application like any other departure,
      // so the audience stays stationary through a burst.
      on_departure();
      return;
    }
  }

 private:
  static net::LatencyModel make_latency_model(std::uint64_t seed) {
    net::LatencyConfig lc;
    // Re-roll per-pair path multipliers per run (day) deterministically.
    lc.pair_salt = sim::hash_combine(lc.pair_salt, seed);
    return net::LatencyModel(lc);
  }

  net::IspId pick_isp(net::IspCategory category, sim::Rng& rng) {
    const auto ids = registry_.in_category(category);
    return ids[static_cast<std::size_t>(rng.next_below(ids.size()))];
  }

  proto::HostIdentity make_identity(net::IspCategory category,
                                    net::AccessClass access, sim::Rng& rng) {
    const net::IspId isp = pick_isp(category, rng);
    return proto::HostIdentity{allocator_.allocate(isp), isp, category,
                               net::AccessProfile::sample(access, rng)};
  }

  void build_infrastructure();
  void spawn_viewer(net::IspCategory category, sim::Time session);
  void on_departure();
  void schedule_audience();
  void schedule_probes();
  sim::Time sample_session(sim::Rng& rng);
  void collect_sample();
  void publish_metrics(obs::MetricsRegistry& m) const;
  void aggregate_counters(ExperimentResult& result);
  void export_metrics(const ExperimentResult& result);

  const ExperimentConfig& config_;
  sim::Rng master_rng_;
  net::IspRegistry registry_;
  net::AsnDatabase asn_db_;
  net::PrefixAllocator allocator_;
  sim::Simulator simulator_;
  proto::PeerNetwork network_;

  // The run's trace fan-out when two or more sinks are live (run() hands
  // the simulator the sink to use). Declared before every emitter because
  // ~Peer still emits through it; members below destruct first.
  std::unique_ptr<obs::TeeTraceSink> trace_tee_;

  std::unique_ptr<proto::BootstrapServer> bootstrap_;
  std::vector<std::unique_ptr<proto::TrackerServer>> trackers_;
  std::unordered_set<net::IpAddress> tracker_ips_;
  std::unique_ptr<proto::StreamSource> source_;

  std::vector<std::unique_ptr<proto::Peer>> peers_;
  // sessions_[i] belongs to the audience peer in session_peers_[i]; probes
  // are excluded.
  std::vector<SessionRecord> sessions_;
  std::vector<proto::Peer*> session_peers_;
  struct Probe {
    std::string label;
    proto::Peer* peer = nullptr;
    std::shared_ptr<capture::PacketTrace> trace;
  };
  std::vector<Probe> probes_;

  TrafficMatrix traffic_;
  std::uint64_t departures_ = 0;

  // Fault injection (inert unless config_.faults.plan has windows).
  net::ImpairmentOverlay impairments_;
  std::unique_ptr<faults::FaultDriver> fault_driver_;

  // Observability (all inert unless config_.observability enables them).
  obs::TrafficSampler sampler_;
  std::unique_ptr<obs::HealthMonitor> health_;
};

void Runner::build_infrastructure() {
  sim::Rng infra_rng = master_rng_.fork(0x696E667261);

  // Bootstrap/channel server in a Chinese datacenter (TELE).
  bootstrap_ = std::make_unique<proto::BootstrapServer>(
      simulator_, network_,
      make_identity(net::IspCategory::kTele, net::AccessClass::kDatacenter,
                    infra_rng));

  // Five tracker groups at different locations in China (paper Section 2);
  // none abroad. One server per group at simulation scale.
  const net::IspCategory tracker_sites[5] = {
      net::IspCategory::kTele, net::IspCategory::kTele,
      net::IspCategory::kCnc, net::IspCategory::kCnc,
      net::IspCategory::kCer};
  proto::TrackerConfig tracker_config;
  if (config_.locality_aware_trackers) tracker_config.locality_db = &asn_db_;
  std::vector<std::vector<net::IpAddress>> tracker_groups;
  for (const auto site : tracker_sites) {
    auto tracker = std::make_unique<proto::TrackerServer>(
        simulator_, network_,
        make_identity(site, net::AccessClass::kDatacenter, infra_rng),
        infra_rng.fork(trackers_.size()), tracker_config);
    tracker_ips_.insert(tracker->ip());
    tracker_groups.push_back({tracker->ip()});
    trackers_.push_back(std::move(tracker));
  }
  // The source registers with the trackers in this set's hash order, which
  // every pinned output depends on.
  std::vector<net::IpAddress> tracker_list(tracker_ips_.begin(),
                                           tracker_ips_.end());

  // The stream source, in a TELE datacenter with bounded upload so the
  // swarm stays peer-served.
  auto source_identity = make_identity(
      net::IspCategory::kTele, net::AccessClass::kDatacenter, infra_rng);
  source_identity.profile.up_bps = 8e6;  // seeds ~20 streams
  // A source draws nothing, but this draw keeps every later
  // infrastructure draw (and so every pinned output) where it is.
  infra_rng.next_u64();
  source_ = std::make_unique<proto::StreamSource>(
      simulator_, network_, source_identity, config_.scenario.channel,
      tracker_list);

  proto::BootstrapServer::ChannelEntry entry;
  entry.channel = config_.scenario.channel.id;
  entry.tracker_groups = tracker_groups;
  entry.source = source_->ip();
  bootstrap_->register_channel(std::move(entry));
  source_->start();

  network_.set_global_tap([this](const net::Endpoint& from,
                                 const net::Endpoint& to,
                                 const proto::Message& m, std::uint64_t) {
    if (const auto* dr = std::get_if<proto::DataReply>(&m))
      traffic_.bytes[static_cast<std::size_t>(from.category)]
                    [static_cast<std::size_t>(to.category)] +=
          dr->payload_bytes;
  });
}

/// One Figure-6-style snapshot: traffic-matrix cumulative state plus the
/// swarm's current neighbor composition and continuity. Runs inside the
/// event loop but touches no RNG and mutates no protocol state, so
/// enabling sampling cannot change the simulated trajectory.
void Runner::collect_sample() {
  double continuity_acc = 0;
  std::uint64_t viewers = 0;
  std::uint64_t alive = 0;
  std::uint64_t isolated = 0;
  std::uint64_t same_isp_links = 0;
  std::uint64_t total_links = 0;
  for (const auto& peer : peers_) {
    if (!peer->alive()) continue;
    ++alive;
    const auto& c = peer->counters();
    if (c.chunks_played + c.chunks_missed > 0) {
      continuity_acc += c.continuity();
      ++viewers;
    }
    const net::IspCategory own = peer->identity().category;
    std::uint64_t links = 0;
    for (const auto& ip : peer->neighbor_ips()) {
      ++links;
      if (asn_db_.category_or_foreign(ip) == own) ++same_isp_links;
    }
    total_links += links;
    if (links == 0) ++isolated;
  }
  const obs::TrafficSample& sample = sampler_.record(
      simulator_.now(), traffic_.bytes,
      total_links == 0 ? 0.0
                       : static_cast<double>(same_isp_links) /
                             static_cast<double>(total_links),
      viewers == 0 ? 0.0 : continuity_acc / static_cast<double>(viewers),
      alive);
  if (std::ostream* stream = config_.observability.samples_stream)
    obs::write_sample_ndjson(*stream, sample);
  if (config_.observability.recorder != nullptr)
    config_.observability.recorder->note_sample(sample);
  if (health_ != nullptr) {
    obs::HealthInput input;
    input.t = sample.t;
    input.avg_continuity = sample.avg_continuity;
    input.same_isp_share_interval = sample.same_isp_share_interval;
    input.interval_bytes = sample.interval_bytes;
    input.alive_peers = sample.alive_peers;
    input.isolated_peers = isolated;
    for (std::size_t i = 0; i < session_peers_.size(); ++i) {
      const proto::Peer* peer = session_peers_[i];
      if (peer->alive() && !peer->playback_started())
        input.startup_waits_s.push_back(
            (simulator_.now() - sessions_[i].joined).as_seconds());
    }
    input.queue_depth = simulator_.pending_events();
    health_->evaluate(input);
  }
  if (obs::ResourceProbe* probe = config_.observability.resource) {
    // Live-byte accounting only runs with a probe attached, so the plain
    // sampling path keeps its cost unchanged.
    std::uint64_t live_bytes = 0;
    for (const auto& peer : peers_)
      if (peer->alive()) live_bytes += peer->approx_live_bytes();
    obs::ResourceProbe::Inputs in;
    in.now = simulator_.now();
    in.queue_depth = simulator_.pending_events();
    in.event_horizon = simulator_.latest_scheduled() - simulator_.now();
    in.events_executed = simulator_.events_executed();
    in.queue_bytes = simulator_.approx_queue_bytes();
    in.live_peers = alive;
    in.live_peer_bytes = live_bytes;
    if (const obs::RunProfiler* prof = config_.observability.profiler)
      in.wall_seconds = prof->wall_seconds_elapsed();
    probe->sample(in);
  }
}

/// Converges `m` on the run's own accounts: the traffic matrix and the
/// counts that the fault driver, the health monitor, the flight recorder
/// and the resource probe keep. Runs where the registry is read: right
/// before a post-mortem bundle snapshots it, and once at run end.
void Runner::publish_metrics(obs::MetricsRegistry& m) const {
  for (const auto src : net::kAllIspCategories) {
    for (const auto dst : net::kAllIspCategories) {
      m.counter("bytes_uploaded",
                {{"src_isp", std::string(net::to_string(src))},
                 {"dst_isp", std::string(net::to_string(dst))}})
          .raise_to(traffic_.bytes[static_cast<std::size_t>(src)]
                                  [static_cast<std::size_t>(dst)]);
    }
  }
  if (fault_driver_ != nullptr) fault_driver_->export_metrics(m);
  if (health_ != nullptr) health_->export_metrics(m);
  const ObservabilityConfig& ob = config_.observability;
  if (ob.recorder != nullptr) ob.recorder->export_metrics(m);
  if (ob.resource != nullptr) ob.resource->export_metrics(m);
}

void Runner::aggregate_counters(ExperimentResult& result) {
  for (const auto& peer : peers_) {
    const proto::PeerCounters& c = peer->counters();
    result.counter_totals += c;
    result.counters_by_isp[static_cast<std::size_t>(
        peer->identity().category)] += c;
  }
}

void Runner::export_metrics(const ExperimentResult& result) {
  obs::MetricsRegistry* m = config_.observability.metrics;
  if (m == nullptr) return;
  // Aggregated protocol counters, one series per ISP category, one metric
  // per PeerCounters field. for_each_field guarantees nothing is dropped.
  for (const auto cat : net::kAllIspCategories) {
    const proto::PeerCounters& c =
        result.counters_by_isp[static_cast<std::size_t>(cat)];
    proto::for_each_field(c, [&](const char* name, const std::uint64_t& v) {
      m->counter(std::string("peer_") + name,
                 {{"isp", std::string(net::to_string(cat))}})
          .inc(v);
    });
  }
  m->gauge("avg_continuity").set(result.swarm.avg_continuity);
  m->counter("peers_spawned").inc(result.swarm.peers_spawned);
  m->counter("departures").inc(result.swarm.departures);
  m->counter("packets_delivered").inc(result.swarm.packets_delivered);
  m->counter("packets_dropped").inc(result.swarm.packets_dropped);
  m->counter("events_executed").inc(result.swarm.events_executed);
  auto& durations = m->histogram("session_duration_s",
                                 {30, 60, 120, 300, 600, 1200, 3600});
  auto& continuity =
      m->histogram("session_continuity", {0.5, 0.8, 0.9, 0.95, 0.99});
  for (const auto& rec : result.sessions) {
    durations.observe(rec.duration_seconds());
    continuity.observe(rec.continuity);
  }
}

sim::Time Runner::sample_session(sim::Rng& rng) {
  // Heavy-tailed session lengths: Weibull with shape < 1.
  const double mean_s = config_.scenario.mean_session.as_seconds();
  // For Weibull(lambda, k): mean = lambda * Gamma(1 + 1/k).
  // With k = 0.6, Gamma(1 + 1/0.6) = Gamma(2.667) ~= 1.503.
  const double lambda = mean_s / 1.503;
  const double s = rng.weibull(lambda, 0.6);
  return sim::Time::from_seconds(std::clamp(s, 10.0, 4 * 3600.0));
}

void Runner::on_departure() {
  ++departures_;
  const workload::ScenarioSpec& scenario = config_.scenario;
  // A broadcast-event audience drains; nobody replaces a viewer who left.
  if (scenario.curve == workload::AudienceCurve::kBroadcastEvent) return;
  sim::Rng churn_rng = master_rng_.fork(0x636875726E + departures_);
  const sim::Time gap = sim::Time::from_seconds(
      churn_rng.exponential(scenario.mean_rejoin_gap.as_seconds()));
  const net::IspCategory cat = scenario.mix.sample(churn_rng);
  simulator_.schedule(gap, [this, cat] {
    sim::Rng r = master_rng_.fork(0x73657373 + peers_.size());
    spawn_viewer(cat, sample_session(r));
  });
}

void Runner::spawn_viewer(net::IspCategory category, sim::Time session) {
  sim::Rng rng = master_rng_.fork(0x7065657200 + peers_.size());
  const net::AccessClass access = workload::access_class_for(category, rng);
  auto identity = make_identity(category, access, rng);
  auto policy = baseline::make_policy(config_.strategy, &asn_db_, category);
  proto::PeerConfig peer_config = config_.peer_config;
  peer_config.behind_nat = rng.chance(workload::nat_probability(access));
  const auto& scenario = config_.scenario;
  auto peer = std::make_unique<proto::Peer>(
      simulator_, network_, identity, scenario.channel, bootstrap_->ip(),
      rng.fork(1), peer_config, std::move(policy));
  proto::Peer* raw = peer.get();
  peers_.push_back(std::move(peer));
  SessionRecord record;
  record.channel = scenario.channel.id;
  record.category = category;
  record.behind_nat = peer_config.behind_nat;
  record.joined = simulator_.now();
  const std::size_t session_idx = sessions_.size();
  sessions_.push_back(record);
  session_peers_.push_back(raw);
  raw->join();

  // Departure + stationary replacement.
  simulator_.schedule(session, [this, raw, session_idx] {
    if (!raw->alive()) return;
    raw->leave();
    sessions_[session_idx].left = simulator_.now();
    sessions_[session_idx].completed = true;
    on_departure();
  });
}

void Runner::schedule_audience() {
  sim::Rng rng = master_rng_.fork(0x617564);
  const auto& sc = config_.scenario;
  const double total_s = sc.duration.as_seconds();
  for (int i = 0; i < sc.viewers; ++i) {
    const net::IspCategory cat = sc.mix.sample(rng);
    sim::Time when;
    sim::Rng srng = rng.fork(static_cast<std::uint64_t>(i));
    sim::Time session;
    if (sc.curve == workload::AudienceCurve::kBroadcastEvent) {
      // Flood in around the program start, trickle through the first
      // half; most viewers stay until near the end.
      const double arrive =
          rng.chance(0.7) ? rng.uniform(0.0, 0.15 * total_s)
                          : rng.uniform(0.15 * total_s, 0.6 * total_s);
      when = sim::Time::from_seconds(arrive);
      if (srng.chance(0.75)) {
        // Watches to (roughly) the end of the broadcast.
        session = sim::Time::from_seconds(
            std::max(30.0, (total_s - arrive) * srng.uniform(0.85, 1.1)));
      } else {
        session = sample_session(srng);  // zapper
      }
    } else {
      when = sim::Time::from_seconds(
          rng.uniform(0.0, sc.arrival_ramp.as_seconds()));
      session = sample_session(srng);
    }
    simulator_.schedule(when,
                        [this, cat, session] { spawn_viewer(cat, session); });
  }
}

void Runner::schedule_probes() {
  sim::Rng rng = master_rng_.fork(0x70726F6265);
  for (const auto& spec : config_.probes) {
    sim::Rng prng = rng.fork(probes_.size());
    auto identity = make_identity(spec.isp, spec.access, prng);
    auto policy = baseline::make_policy(config_.strategy, &asn_db_, spec.isp);
    auto peer = std::make_unique<proto::Peer>(
        simulator_, network_, identity, config_.scenario.channel,
        bootstrap_->ip(), prng.fork(1), config_.peer_config,
        std::move(policy));
    proto::Peer* raw = peer.get();
    auto trace = capture::attach_sniffer(network_, identity.ip);
    peers_.push_back(std::move(peer));
    probes_.push_back(Probe{spec.label, raw, std::move(trace)});
    simulator_.schedule(config_.probe_join_at, [raw] { raw->join(); });
  }
}

/// The sink that feeds every non-null one of `sinks`, in order: nullptr
/// when there is none, the sink itself when there is one, else `tee`.
obs::TraceSink* fan_out(std::unique_ptr<obs::TeeTraceSink>& tee,
                        std::initializer_list<obs::TraceSink*> sinks) {
  obs::TraceSink* only = nullptr;
  for (obs::TraceSink* sink : sinks) {
    if (sink == nullptr) continue;
    if (only != nullptr) {
      tee = std::make_unique<obs::TeeTraceSink>(sinks);
      return tee.get();
    }
    only = sink;
  }
  return only;
}

ExperimentResult Runner::run() {
  // Everything the observability config implies is decided here, before
  // any emitter is built; ObservabilityConfig documents the rules.
  const ObservabilityConfig& ob = config_.observability;
  assert((ob.trace == nullptr || ob.trace != ob.recorder) &&
         "the runner feeds the recorder every trace row itself");
  simulator_.set_tracing(
      fan_out(trace_tee_, {ob.trace, ob.recorder, ob.spans}),
      /*causal=*/ob.spans != nullptr);
  std::unique_ptr<obs::TeeTraceSink> rows_tee;
  std::unique_ptr<obs::SimEventTracer> sim_tracer;
  if (ob.trace_sim_events) {
    if (obs::TraceSink* rows = fan_out(rows_tee, {ob.trace, ob.recorder}))
      sim_tracer = std::make_unique<obs::SimEventTracer>(*rows);
  }
  // A fresh profiler, not the caller's: one reused across runs would count
  // the earlier runs too.
  std::unique_ptr<obs::RunProfiler> dispatch_counts;
  if (ob.health_rules != nullptr && ob.metrics != nullptr)
    dispatch_counts = std::make_unique<obs::RunProfiler>(/*timed=*/false);
  const std::array<sim::SimObserver*, 3> observers = {
      ob.profiler, sim_tracer.get(), dispatch_counts.get()};
  const bool wants_health =
      ob.health_rules != nullptr && !ob.health_rules->empty();
  sim::Time sample_period = ob.sample_period;
  if (sample_period <= sim::Time::zero() &&
      (wants_health || ob.recorder != nullptr || ob.resource != nullptr ||
       ob.samples_stream != nullptr))
    sample_period = sim::Time::seconds(10);

  if (config_.interconnects.has_value())
    network_.set_interconnects(*config_.interconnects);
  build_infrastructure();
  schedule_audience();
  schedule_probes();

  // Arm the fault plan up front so every window boundary sits on the
  // simulator clock before the first event runs. Without a plan, no
  // overlay is installed and the transport path is untouched.
  if (!config_.faults.plan.empty()) {
    network_.set_impairments(&impairments_);
    const std::uint64_t fault_seed =
        config_.faults.fault_seed != 0
            ? config_.faults.fault_seed
            : sim::hash_combine(config_.scenario.seed, 0x6661756C7473ULL);
    fault_driver_ = std::make_unique<faults::FaultDriver>(
        simulator_, impairments_, *this, config_.faults.plan, fault_seed);
    fault_driver_->arm();
  }

  for (sim::SimObserver* observer : observers)
    if (observer != nullptr) simulator_.add_observer(observer);

  if (wants_health) {
    health_ = std::make_unique<obs::HealthMonitor>(*ob.health_rules,
                                                   simulator_.trace_sink());
    if (obs::FlightRecorder* recorder = ob.recorder) {
      health_->set_critical_hook(
          [recorder](sim::Time t, const obs::HealthRule& rule, double) {
            recorder->trigger(t, "health-" + rule.display_name());
          });
    }
  }
  // A bundle's metrics section is a read: bring the registry up to date.
  if (ob.recorder != nullptr)
    ob.recorder->set_pre_dump_hook(
        [this](obs::MetricsRegistry& m) { publish_metrics(m); });
  // Watchdogs, the flight recorder, the resource probe and the samples
  // stream all ride this tick.
  if (sample_period > sim::Time::zero()) {
    sim::schedule_periodic(
        simulator_, sample_period,
        [this] {
          collect_sample();
          return true;
        },
        "obs.sample");
  }

  // The heartbeat is its own chain so its cadence is independent of the
  // sampling one; like the sampler tick it reads but never mutates, so
  // arming it cannot change the simulated trajectory.
  if (obs::ProgressMeter* meter = ob.progress) {
    sim::schedule_periodic(
        simulator_, ob.progress_period,
        [this, meter] {
          obs::ProgressMeter::State state;
          state.now = simulator_.now();
          if (const obs::RunProfiler* prof = config_.observability.profiler)
            state.wall_seconds = prof->wall_seconds_elapsed();
          state.events_executed = simulator_.events_executed();
          for (const auto& peer : peers_)
            if (peer->alive()) ++state.peers_alive;
          state.queue_depth = simulator_.pending_events();
          state.rss_bytes = obs::ResourceProbe::current_rss_bytes();
          meter->tick(state);
          return true;
        },
        "obs.progress");
  }

  simulator_.run_until(config_.scenario.duration);

  if (ob.recorder != nullptr) ob.recorder->set_pre_dump_hook(nullptr);
  for (sim::SimObserver* observer : observers)
    if (observer != nullptr) simulator_.remove_observer(observer);
  if (ob.metrics != nullptr) publish_metrics(*ob.metrics);
  if (dispatch_counts != nullptr) dispatch_counts->export_metrics(*ob.metrics);

  ExperimentResult result;
  result.traffic = traffic_;
  result.samples = sampler_.samples();

  for (const auto& probe : probes_) {
    ProbeResult pr;
    pr.label = probe.label;
    pr.ip = probe.peer->ip();
    pr.category = probe.peer->identity().category;
    pr.counters = probe.peer->counters();
    pr.analysis = capture::analyze_trace(*probe.trace, asn_db_,
                                         probe.peer->ip(), tracker_ips_);
    if (config_.keep_traces) pr.trace = probe.trace;
    result.probes.push_back(std::move(pr));
  }

  double continuity_acc = 0;
  std::uint64_t viewers = 0;
  for (const auto& peer : peers_) {
    if (peer->counters().chunks_played + peer->counters().chunks_missed > 0) {
      continuity_acc += peer->counters().continuity();
      ++viewers;
    }
  }
  result.swarm.peers_spawned = peers_.size();
  result.swarm.departures = departures_;
  result.swarm.avg_continuity =
      viewers == 0 ? 0.0 : continuity_acc / static_cast<double>(viewers);
  result.swarm.packets_delivered = network_.stats().packets_delivered;
  result.swarm.packets_dropped =
      network_.stats().uplink_drops + network_.stats().core_drops +
      network_.stats().downlink_drops + network_.stats().dead_destination_drops +
      network_.stats().blackout_drops + network_.stats().brownout_drops +
      network_.stats().degrade_drops;
  result.swarm.events_executed = simulator_.events_executed();
  result.swarm.peak_queue_depth = simulator_.peak_pending_events();

  if (fault_driver_ != nullptr) {
    result.fault_windows_applied = fault_driver_->windows_applied();
    result.fault_windows_reverted = fault_driver_->windows_reverted();
    result.fault_peers_crashed = fault_driver_->peers_crashed();
  }

  if (health_ != nullptr) result.health = health_->summary();

  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    SessionRecord rec = sessions_[i];
    if (!rec.completed) rec.left = simulator_.now();
    const auto& c = session_peers_[i]->counters();
    rec.bytes_downloaded = c.bytes_downloaded;
    rec.bytes_uploaded = c.bytes_uploaded;
    rec.continuity = c.continuity();
    result.sessions.push_back(rec);
  }

  aggregate_counters(result);
  export_metrics(result);
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return Runner(config).run();
}

}  // namespace ppsim::core
