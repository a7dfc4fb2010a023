#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/resource_probe.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs_testutil.h"
#include "workload/scenario.h"

namespace ppsim::core {
namespace {

ExperimentConfig small_config(std::uint64_t seed = 7) {
  ExperimentConfig config;
  config.scenario = workload::unpopular_channel();
  config.scenario.viewers = 25;
  config.scenario.duration = sim::Time::minutes(3);
  config.scenario.seed = seed;
  config.probes = {tele_probe()};
  return config;
}

TEST(Observability, MetricsMatrixReconcilesWithTrafficGroundTruth) {
  ExperimentConfig config = small_config();
  obs::MetricsRegistry metrics;
  config.observability.metrics = &metrics;

  const ExperimentResult result = run_experiment(config);
  ASSERT_GT(result.traffic.total(), 0u);

  // Every per-ISP-pair counter must equal the ground-truth matrix cell
  // exactly: the runner publishes the counters from the matrix.
  for (const auto src : net::kAllIspCategories) {
    for (const auto dst : net::kAllIspCategories) {
      const obs::Counter* c = metrics.find_counter(
          "bytes_uploaded",
          {{"src_isp", std::string(net::to_string(src))},
           {"dst_isp", std::string(net::to_string(dst))}});
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->value(),
                result.traffic.bytes[static_cast<std::size_t>(src)]
                                    [static_cast<std::size_t>(dst)])
          << net::to_string(src) << " -> " << net::to_string(dst);
    }
  }
}

TEST(Observability, CounterTotalsReconcileWithDeliveredBytes) {
  ExperimentConfig config = small_config();
  const ExperimentResult result = run_experiment(config);

  const std::uint64_t delivered = result.traffic.total();
  ASSERT_GT(delivered, 0u);
  // The two accountings bracket each other but are not identical: the
  // matrix counts every delivered DataReply (duplicates included) except
  // those whose sender churned out before delivery (the global tap cannot
  // attribute an ISP to a detached sender), while peers count a download
  // only on first insert. Both slippages are rare, so the totals must
  // agree closely without being equal.
  const double down = static_cast<double>(
      result.counter_totals.bytes_downloaded);
  EXPECT_GT(result.counter_totals.bytes_downloaded, 0u);
  EXPECT_GT(result.counter_totals.bytes_uploaded, 0u);
  EXPECT_NEAR(down / static_cast<double>(delivered), 1.0, 0.01);

  // Per-ISP splits sum to the totals, field by field.
  proto::PeerCounters recomposed;
  for (const auto& c : result.counters_by_isp) recomposed += c;
  for_each_field(recomposed, [&, i = std::size_t{0}](
                                 const char* name,
                                 const std::uint64_t& v) mutable {
    std::uint64_t total_v = 0;
    for_each_field(result.counter_totals,
                   [&, j = std::size_t{0}](const char*,
                                           const std::uint64_t& tv) mutable {
                     if (j == i) total_v = tv;
                     ++j;
                   });
    EXPECT_EQ(v, total_v) << name;
    ++i;
  });
}

TEST(Observability, SamplerProducesMonotoneBoundedSeries) {
  ExperimentConfig config = small_config();
  config.observability.sample_period = sim::Time::seconds(15);
  const ExperimentResult result = run_experiment(config);

  // 3 simulated minutes at 15 s cadence -> 12 samples (one at t=180 fires
  // exactly at the horizon).
  ASSERT_GE(result.samples.size(), 11u);
  sim::Time prev_t = sim::Time::zero();
  std::uint64_t prev_bytes = 0;
  for (const auto& s : result.samples) {
    EXPECT_GT(s.t, prev_t);
    prev_t = s.t;
    const std::uint64_t cum = obs::matrix_total(s.bytes);
    EXPECT_GE(cum, prev_bytes);
    prev_bytes = cum;
    EXPECT_GE(s.same_isp_share_cum, 0.0);
    EXPECT_LE(s.same_isp_share_cum, 1.0);
    EXPECT_GE(s.same_isp_share_interval, 0.0);
    EXPECT_LE(s.same_isp_share_interval, 1.0);
    EXPECT_GE(s.neighbor_same_isp_share, 0.0);
    EXPECT_LE(s.neighbor_same_isp_share, 1.0);
    EXPECT_GE(s.avg_continuity, 0.0);
    EXPECT_LE(s.avg_continuity, 1.0);
  }
  // The final cumulative snapshot cannot exceed the end-of-run matrix.
  EXPECT_LE(prev_bytes, result.traffic.total());
}

TEST(Observability, SamplingDoesNotPerturbTheSimulation) {
  ExperimentConfig plain = small_config();
  const ExperimentResult base = run_experiment(plain);

  ExperimentConfig sampled = small_config();
  obs::MetricsRegistry metrics;
  obs::CountingTraceSink trace;
  sampled.observability.metrics = &metrics;
  sampled.observability.trace = &trace;
  sampled.observability.sample_period = sim::Time::seconds(10);
  const ExperimentResult observed = run_experiment(sampled);

  // Observability is passive: the traffic matrix, counters, and session
  // list must be identical with and without it.
  EXPECT_EQ(base.traffic.bytes, observed.traffic.bytes);
  EXPECT_EQ(base.swarm.peers_spawned, observed.swarm.peers_spawned);
  EXPECT_EQ(base.swarm.departures, observed.swarm.departures);
  EXPECT_EQ(base.counter_totals.bytes_downloaded,
            observed.counter_totals.bytes_downloaded);
  EXPECT_EQ(base.counter_totals.data_requests_sent,
            observed.counter_totals.data_requests_sent);
  ASSERT_EQ(base.sessions.size(), observed.sessions.size());
  EXPECT_GT(trace.total(), 0u);
}

TEST(Observability, SamplesStreamMatchesTheResultSeries) {
  // The runner writes each sample to the stream as it is recorded. The
  // stream must end byte-identical to the dump of the result's series, and
  // that series must be the whole run, as in a run without a stream.
  const auto ndjson = [](const std::vector<obs::TrafficSample>& samples) {
    std::ostringstream os;
    obs::write_samples_ndjson(os, samples);
    return os.str();
  };
  ExperimentConfig plain = small_config();
  plain.observability.sample_period = sim::Time::seconds(15);
  const ExperimentResult base = run_experiment(plain);

  ExperimentConfig streamed = small_config();
  std::ostringstream stream;
  streamed.observability.sample_period = sim::Time::seconds(15);
  streamed.observability.samples_stream = &stream;
  const ExperimentResult result = run_experiment(streamed);

  ASSERT_EQ(result.samples.size(), 12u);  // 3 minutes at 15 s
  EXPECT_EQ(stream.str(), ndjson(result.samples));
  EXPECT_EQ(ndjson(result.samples), ndjson(base.samples));
  EXPECT_EQ(base.traffic.bytes, result.traffic.bytes);

  // A stream without a period samples at the 10 s default.
  ExperimentConfig defaulted = small_config();
  std::ostringstream default_stream;
  defaulted.observability.samples_stream = &default_stream;
  const ExperimentResult by_default = run_experiment(defaulted);
  ASSERT_EQ(by_default.samples.size(), 18u);
  EXPECT_EQ(default_stream.str(), ndjson(by_default.samples));
}

TEST(Observability, ScaleObservatoryDoesNotPerturbTheSimulation) {
  ExperimentConfig plain = small_config();
  const ExperimentResult base = run_experiment(plain);

  // Arm the whole scale observatory: resource probe (with gauges), progress
  // heartbeat, and the samples stream.
  ExperimentConfig observed_cfg = small_config();
  obs::MetricsRegistry metrics;
  obs::RunProfiler profiler;
  obs::ResourceProbe probe;
  std::ostringstream heartbeat, stream;
  obs::ProgressMeter meter(
      {.out = &heartbeat, .total = observed_cfg.scenario.duration});
  observed_cfg.observability.metrics = &metrics;
  observed_cfg.observability.profiler = &profiler;
  observed_cfg.observability.resource = &probe;
  observed_cfg.observability.progress = &meter;
  observed_cfg.observability.progress_period = sim::Time::seconds(30);
  observed_cfg.observability.sample_period = sim::Time::seconds(15);
  observed_cfg.observability.samples_stream = &stream;
  const ExperimentResult observed = run_experiment(observed_cfg);

  EXPECT_EQ(base.traffic.bytes, observed.traffic.bytes);
  EXPECT_EQ(base.swarm.peers_spawned, observed.swarm.peers_spawned);
  EXPECT_EQ(base.counter_totals.bytes_downloaded,
            observed.counter_totals.bytes_downloaded);
  ASSERT_EQ(base.sessions.size(), observed.sessions.size());

  // The probe ticked on the sampler cadence and published every gauge.
  EXPECT_FALSE(probe.samples().empty());
  for (const std::string_view name : obs::kResourceGaugeNames)
    EXPECT_NE(metrics.find_gauge(std::string(name)), nullptr) << name;
  // Deterministic scheduler gauges carry real readings.
  EXPECT_GT(metrics.find_gauge("live_peers")->value(), 0.0);
  // The heartbeat fired (180 s run / 30 s period, minus horizon effects).
  EXPECT_GE(meter.lines_written(), 4u);
  EXPECT_NE(heartbeat.str().find("[progress] t="), std::string::npos);
  // Its wall columns come from the attached profiler.
  EXPECT_EQ(heartbeat.str().find("wall=-"), std::string::npos)
      << heartbeat.str();
}

TEST(Observability, TraceCoversTheProtocolVocabulary) {
  ExperimentConfig config = small_config();
  obs::CountingTraceSink trace;
  config.observability.trace = &trace;
  run_experiment(config);

  EXPECT_GT(trace.count("peer_join"), 0u);
  EXPECT_GT(trace.count("tracker_query"), 0u);
  EXPECT_GT(trace.count("tracker_reply"), 0u);
  EXPECT_GT(trace.count("tracker_serve"), 0u);
  EXPECT_GT(trace.count("gossip_query"), 0u);
  EXPECT_GT(trace.count("gossip_reply"), 0u);
  EXPECT_GT(trace.count("connect_attempt"), 0u);
  EXPECT_GT(trace.count("connect_result"), 0u);
  EXPECT_GT(trace.count("data_request"), 0u);
  EXPECT_GT(trace.count("data_serve"), 0u);
  EXPECT_GT(trace.count("source_serve"), 0u);
  EXPECT_GT(trace.count("peer_leave"), 0u);
}

TEST(Observability, ProfilerSeesCategorizedEvents) {
  ExperimentConfig config = small_config();
  obs::RunProfiler profiler;
  config.observability.profiler = &profiler;
  const ExperimentResult result = run_experiment(config);

  EXPECT_EQ(profiler.events_total(), result.swarm.events_executed);
  EXPECT_GT(profiler.max_queue_depth(), 0u);
  // Never assert on wall-clock magnitudes — only on structure.
  EXPECT_GE(profiler.wall_seconds_total(), 0.0);
  const auto& cats = profiler.categories();
  EXPECT_TRUE(cats.count("net.deliver") == 1);
  EXPECT_TRUE(cats.count("peer.playback") == 1);
  std::uint64_t events_sum = 0;
  for (const auto& [name, stats] : cats) events_sum += stats.events;
  EXPECT_EQ(events_sum, profiler.events_total());
}

TEST(Observability, WatchdogRunExportsDispatchCounts) {
  const obs::HealthRuleSet rules = obs::default_health_rules();
  obs::RunProfiler profiler;
  const auto run = [&](obs::MetricsRegistry* metrics) {
    ExperimentConfig config = small_config();
    config.observability.health_rules = &rules;
    config.observability.metrics = metrics;
    config.observability.profiler = &profiler;
    run_experiment(config);
  };
  obs::MetricsRegistry metrics;
  run(&metrics);

  // The runner's own untimed profiler sees the same events as the caller's.
  ASSERT_FALSE(profiler.categories().empty());
  for (const auto& [name, stats] : profiler.categories()) {
    const obs::Counter* c = metrics.find_counter(
        "sim_events_dispatched",
        {{"category", name.empty() ? "(untagged)" : name}});
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), stats.events) << name;
  }
  const obs::Gauge* peak = metrics.find_gauge("sim_peak_queue_depth");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value(), static_cast<double>(profiler.max_queue_depth()));

  // A caller profiler reused across runs keeps counting; the export must
  // still cover only its own run.
  obs::MetricsRegistry again;
  run(&again);
  std::ostringstream first, second;
  metrics.write_ndjson(first);
  again.write_ndjson(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Observability, HealthSummaryRidesTheResult) {
  ExperimentConfig config = small_config();
  const obs::HealthRuleSet rules = obs::default_health_rules();
  config.observability.health_rules = &rules;
  const ExperimentResult result = run_experiment(config);

  ASSERT_EQ(result.health.rules.size(), rules.rules.size());
  // --health-rules without an explicit period implies the 10 s default:
  // 3 simulated minutes -> 18 sampler ticks, each one monitor evaluation.
  std::uint64_t evaluations = 0;
  for (const auto& [rule, status] : result.health.rules)
    evaluations = std::max(evaluations, status.evaluations);
  EXPECT_GT(evaluations, 0u);
  EXPECT_LE(evaluations, 18u);
}

TEST(Observability, MonitoringDoesNotPerturbTheSimulation) {
  ExperimentConfig sampled = small_config();
  sampled.observability.sample_period = sim::Time::seconds(10);
  const ExperimentResult base = run_experiment(sampled);

  ExperimentConfig monitored = small_config();
  monitored.observability.sample_period = sim::Time::seconds(10);
  const obs::HealthRuleSet rules = obs::default_health_rules();
  obs::MetricsRegistry metrics;
  monitored.observability.health_rules = &rules;
  monitored.observability.metrics = &metrics;
  const ExperimentResult observed = run_experiment(monitored);

  // The monitor rides the existing sampling tick: same schedule sequence,
  // same event count, identical simulated trajectory.
  EXPECT_EQ(base.traffic.bytes, observed.traffic.bytes);
  EXPECT_EQ(base.swarm.events_executed, observed.swarm.events_executed);
  EXPECT_EQ(base.samples.size(), observed.samples.size());
}

TEST(Observability, SamplerTickStopsAtTheHorizon) {
  ExperimentConfig config = small_config();
  const obs::HealthRuleSet rules = obs::default_health_rules();
  config.observability.health_rules = &rules;
  // run_experiment returning at all proves the periodic chain stopped
  // re-arming; the series ending exactly at the horizon proves no tick
  // fired past it.
  const ExperimentResult result = run_experiment(config);
  ASSERT_EQ(result.samples.size(), 18u);
  EXPECT_EQ(result.samples.back().t, config.scenario.duration);
}

TEST(Observability, CriticalTripDumpsByteIdenticalPostmortems) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::temp_directory_path() / "ppsim_core_postmortem_test";
  fs::remove_all(base);

  // A queue-depth ceiling of 1 trips critical on the first evaluation of
  // any live run, so the dump path is exercised deterministically.
  obs::HealthRuleSet rules;
  obs::HealthRule rule;
  rule.kind = obs::HealthRuleKind::kQueueDepthCeiling;
  rule.warn = 1;
  rule.critical = 1;
  rule.label = "backlog";
  rules.rules.push_back(rule);

  auto run_once = [&](const fs::path& dir) {
    ExperimentConfig config = small_config();
    obs::FlightRecorder::Options options;
    options.dir = dir.string();
    obs::FlightRecorder recorder(options);
    config.observability.health_rules = &rules;
    config.observability.recorder = &recorder;
    const ExperimentResult result = run_experiment(config);
    EXPECT_GE(recorder.dumps_written(), 1u);
    EXPECT_EQ(result.health.worst, obs::HealthState::kCritical);
    return recorder.dump_paths();
  };
  const auto first = run_once(base / "a");
  const auto second = run_once(base / "b");

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(fs::path(first[i]).filename(), fs::path(second[i]).filename());
    auto slurp = [](const std::string& path) {
      std::ifstream in(path);
      std::ostringstream ss;
      ss << in.rdbuf();
      return ss.str();
    };
    const std::string a = slurp(first[i]);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, slurp(second[i]));
  }
  fs::remove_all(base);
}

/// A tracker outage from 45 s to 90 s, then a churn burst at 120 s.
faults::FaultPlan outage_then_burst() {
  faults::FaultPlan plan;
  faults::FaultWindow outage;
  outage.kind = faults::FaultKind::kTrackerOutage;
  outage.tracker_group = -1;
  outage.start = sim::Time::seconds(45);
  outage.end = sim::Time::seconds(90);
  plan.windows.push_back(outage);
  faults::FaultWindow burst;
  burst.kind = faults::FaultKind::kChurnBurst;
  burst.fraction = 0.2;
  burst.start = burst.end = sim::Time::seconds(120);
  plan.windows.push_back(burst);
  return plan;
}

/// The samples and metrics sections of a post-mortem bundle, read back.
struct Bundle {
  std::vector<obs::TrafficSample> samples;
  obs::MetricsRegistry metrics;
};

void read_bundle(const std::string& path, Bundle* out) {
  std::ifstream in(path);
  std::stringstream samples, metrics;
  std::stringstream* section = nullptr;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"section\":\"samples\"", 0) == 0) {
      section = &samples;
    } else if (line.rfind("{\"section\":\"metrics\"", 0) == 0) {
      section = &metrics;
    } else if (line.rfind("{\"section\":", 0) == 0) {
      section = nullptr;
    } else if (section != nullptr) {
      *section << line << "\n";
    }
  }
  out->samples = obs::read_samples_ndjson(samples);
  obs::read_metrics_ndjson(metrics, &out->metrics);
}

TEST(Observability, FaultBundleHoldsTheCountsOfItsMoment) {
  // The registry is filled when read. The bundle dumped at the first
  // fault_begin must still show every traffic row and the window that
  // triggered it.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ppsim_core_predump_test";
  fs::remove_all(dir);
  ExperimentConfig config = small_config();
  config.faults.plan = outage_then_burst();
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder({dir.string(), &metrics});
  config.observability.metrics = &metrics;
  config.observability.recorder = &recorder;
  const ExperimentResult result = run_experiment(config);

  ASSERT_GE(recorder.dump_paths().size(), 1u);
  const std::string& first = recorder.dump_paths()[0];
  ASSERT_NE(first.find("fault_begin-t45000000"), std::string::npos) << first;
  Bundle bundle;
  read_bundle(first, &bundle);

  std::uint64_t uploaded = 0;
  for (const auto src : net::kAllIspCategories) {
    for (const auto dst : net::kAllIspCategories) {
      const obs::Counter* c = bundle.metrics.find_counter(
          "bytes_uploaded", {{"src_isp", std::string(net::to_string(src))},
                             {"dst_isp", std::string(net::to_string(dst))}});
      ASSERT_NE(c, nullptr)
          << net::to_string(src) << " -> " << net::to_string(dst);
      uploaded += c->value();
    }
  }
  const obs::Counter* applied =
      bundle.metrics.find_counter("fault_windows_applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->value(), 1u);
  EXPECT_EQ(bundle.metrics.find_counter("fault_windows_reverted"), nullptr);
  EXPECT_EQ(bundle.metrics.find_counter("postmortem_dumps"), nullptr);
  // The traffic rows are of the dump's moment: no less than the last
  // sample before it, no more than the whole run.
  ASSERT_FALSE(bundle.samples.empty());
  EXPECT_GE(uploaded, obs::matrix_total(bundle.samples.back().bytes));
  EXPECT_LE(uploaded, result.traffic.total());
  EXPECT_GT(uploaded, 0u);
  fs::remove_all(dir);
}

TEST(Observability, RunEndMetricsMatchEachComponentsCounts) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ppsim_core_run_end_test";
  fs::remove_all(dir);
  ExperimentConfig config = small_config();
  config.faults.plan = outage_then_burst();
  // Two rules share a label: one warns at once, one goes critical at once.
  obs::HealthRuleSet rules = obs::default_health_rules();
  obs::HealthRule warn_only;
  warn_only.kind = obs::HealthRuleKind::kQueueDepthCeiling;
  warn_only.warn = 1;
  warn_only.critical = 1e12;
  warn_only.label = "backlog";
  rules.rules.push_back(warn_only);
  obs::HealthRule critical = warn_only;
  critical.critical = 1;
  rules.rules.push_back(critical);
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder({dir.string(), &metrics});
  obs::ResourceProbe probe;
  config.observability.metrics = &metrics;
  config.observability.health_rules = &rules;
  config.observability.recorder = &recorder;
  config.observability.resource = &probe;
  const ExperimentResult result = run_experiment(config);

  ASSERT_EQ(result.fault_windows_applied, 2u);
  EXPECT_EQ(metrics.find_counter("fault_windows_applied")->value(), 2u);
  EXPECT_EQ(metrics.find_counter("fault_windows_reverted")->value(),
            result.fault_windows_reverted);
  EXPECT_EQ(metrics.find_counter("fault_peers_crashed")->value(),
            result.fault_peers_crashed);

  // One health row per label and count, summed over the label's rules, and
  // present only once there is something to count.
  std::map<std::string, obs::HealthRuleStatus> by_label;
  for (const auto& [rule, status] : result.health.rules) {
    obs::HealthRuleStatus& sum = by_label[rule.display_name()];
    sum.trips += status.trips;
    sum.warns += status.warns;
    sum.criticals += status.criticals;
    sum.clears += status.clears;
  }
  ASSERT_GE(by_label["backlog"].trips, 2u);
  for (const auto& [label, sum] : by_label) {
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"health_trips", sum.trips},
        {"health_warns", sum.warns},
        {"health_criticals", sum.criticals},
        {"health_clears", sum.clears}};
    for (const auto& [name, count] : counts) {
      const obs::Counter* c = metrics.find_counter(name, {{"rule", label}});
      if (count == 0) {
        EXPECT_EQ(c, nullptr) << name << "{" << label << "}";
      } else {
        ASSERT_NE(c, nullptr) << name << "{" << label << "}";
        EXPECT_EQ(c->value(), count) << name << "{" << label << "}";
      }
    }
  }

  ASSERT_GE(recorder.dumps_written(), 1u);
  EXPECT_EQ(metrics.find_counter("postmortem_dumps")->value(),
            recorder.dumps_written());

  // The probe's gauges hold its last sample.
  ASSERT_FALSE(probe.samples().empty());
  const obs::ResourceProbe::Sample& last = probe.samples().back();
  EXPECT_EQ(metrics.find_gauge("sched_queue_depth")->value(),
            static_cast<double>(last.queue_depth));
  EXPECT_EQ(metrics.find_gauge("sched_queue_bytes")->value(),
            static_cast<double>(last.queue_bytes));
  EXPECT_EQ(metrics.find_gauge("live_peers")->value(),
            static_cast<double>(last.live_peers));
  EXPECT_EQ(metrics.find_gauge("live_peer_bytes")->value(),
            static_cast<double>(last.live_peer_bytes));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ppsim::core
