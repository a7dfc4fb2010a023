#include "core/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "capture/trace_io.h"
#include "core/session_export.h"
#include "core/report.h"
#include "faults/plan.h"
#include "faults/resilience.h"
#include "obs/bench_json.h"
#include "obs/directive.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "workload/scenario.h"

namespace ppsim::core {

namespace {

bool is_one_of(const std::string& v, std::initializer_list<const char*> set) {
  return std::any_of(set.begin(), set.end(),
                     [&](const char* s) { return v == s; });
}

std::optional<ProbeSpec> probe_by_name(const std::string& name) {
  if (name == "tele") return tele_probe();
  if (name == "cnc") return cnc_probe();
  if (name == "cer") return cer_probe();
  if (name == "mason") return mason_probe();
  return std::nullopt;
}

std::optional<baseline::Strategy> strategy_by_name(const std::string& name) {
  if (name == "pplive") return baseline::Strategy::kPplive;
  if (name == "tracker-only") return baseline::Strategy::kTrackerOnly;
  if (name == "isp-biased") return baseline::Strategy::kIspBiased;
  if (name == "no-rush") return baseline::Strategy::kNoRush;
  return std::nullopt;
}

}  // namespace

std::string cli_usage() {
  return
      "ppsim — P2P live streaming traffic-locality experiments\n"
      "\n"
      "usage: ppsim [options]\n"
      "  --channel popular|unpopular   workload scenario (default popular)\n"
      "  --viewers N                   audience size (default: scenario's)\n"
      "  --minutes M                   simulated duration (default 10)\n"
      "  --seed S                      run seed (default 1)\n"
      "  --probe tele|cnc|cer|mason    probe site; repeatable (default tele)\n"
      "  --strategy pplive|tracker-only|isp-biased|no-rush\n"
      "  --smart-trackers              ISP-aware tracker replies\n"
      "  --report SECTION              repeatable; sections: returned,\n"
      "                                sources, data, response, contrib,\n"
      "                                rtt, swarm, all (default data)\n"
      "  --dump-trace PREFIX           write each probe's capture to\n"
      "                                PREFIX-<label>.trace (a repeated\n"
      "                                label's Nth probe: <label>-N)\n"
      "  --dump-sessions FILE          write viewer sessions as CSV\n"
      "  --metrics-out FILE            write the metrics registry as NDJSON\n"
      "  --trace-out FILE              write the protocol event trace as\n"
      "                                NDJSON (deterministic per seed)\n"
      "  --trace-sim-events            also trace every simulator event\n"
      "                                (high volume; needs --trace-out)\n"
      "  --samples-out FILE            write periodic swarm snapshots as\n"
      "                                NDJSON (Figure-6-style time series)\n"
      "  --sample-period SEC           snapshot cadence in sim-seconds\n"
      "                                (default 10; needs --samples-out)\n"
      "  --progress[=SEC]              stderr heartbeat every SEC\n"
      "                                sim-seconds (default 30): sim/wall\n"
      "                                time, events/s, peers alive, RSS,\n"
      "                                ETA; arms the resource probe\n"
      "  --profile                     print a per-event-category wall-clock\n"
      "                                profile after the run\n"
      "  --fault-plan FILE             arm a fault-injection plan\n"
      "                                (docs/FAULTS.md); prints a per-window\n"
      "                                resilience timeline when sampling is\n"
      "                                also enabled\n"
      "  --fault-seed S                victim-sampling seed for churn/\n"
      "                                brownout windows (default: derived\n"
      "                                from --seed)\n"
      "  --health-rules FILE|default   arm watchdog rules evaluated on every\n"
      "                                sampling tick; 'default' uses the\n"
      "                                built-in rule set\n"
      "                                (docs/OBSERVABILITY.md)\n"
      "  --postmortem-dir DIR          flight recorder: dump a post-mortem\n"
      "                                NDJSON bundle on critical watchdog\n"
      "                                trips, peer crashes, and fault-window\n"
      "                                onsets (needs --health-rules or\n"
      "                                --fault-plan)\n"
      "  --bench-json FILE             write per-category run telemetry in\n"
      "                                the BENCH json format (implies\n"
      "                                profiling)\n"
      "  --causal-trace                causal tracing: span/parent ids on\n"
      "                                trace events, referral provenance,\n"
      "                                and a lineage + startup-critical-path\n"
      "                                report section\n"
      "  --spans-out FILE              write referral lineage and startup\n"
      "                                critical paths as NDJSON (implies\n"
      "                                --causal-trace)\n"
      "  --help\n";
}

CliParseResult parse_cli(int argc, const char* const* argv) {
  CliParseResult out;
  CliOptions& o = out.options;
  bool probes_cleared = false;
  bool reports_cleared = false;

  auto need_value = [&](int& i, const char* flag) -> std::optional<std::string> {
    if (i + 1 >= argc) {
      out.error = std::string("missing value for ") + flag;
      return std::nullopt;
    }
    return std::string(argv[++i]);
  };
  auto need_number = [&](int& i, const char* flag, auto* value) {
    auto v = need_value(i, flag);
    if (!v) return false;
    if (obs::parse_directive_integer(*v, value)) return true;
    out.error = std::string("bad value for ") + flag + ": " + *v;
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      o.help = true;
    } else if (arg == "--channel") {
      auto v = need_value(i, "--channel");
      if (!v) return out;
      if (!is_one_of(*v, {"popular", "unpopular"})) {
        out.error = "unknown channel: " + *v;
        return out;
      }
      o.channel = *v;
    } else if (arg == "--viewers") {
      if (!need_number(i, "--viewers", &o.viewers)) return out;
      if (o.viewers <= 0) {
        out.error = "viewers must be positive";
        return out;
      }
    } else if (arg == "--minutes") {
      if (!need_number(i, "--minutes", &o.minutes)) return out;
      if (o.minutes <= 0) {
        out.error = "minutes must be positive";
        return out;
      }
    } else if (arg == "--seed") {
      if (!need_number(i, "--seed", &o.seed)) return out;
    } else if (arg == "--probe") {
      auto v = need_value(i, "--probe");
      if (!v) return out;
      if (!probe_by_name(*v)) {
        out.error = "unknown probe site: " + *v;
        return out;
      }
      if (!probes_cleared) {
        o.probes.clear();
        probes_cleared = true;
      }
      o.probes.push_back(*v);
    } else if (arg == "--strategy") {
      auto v = need_value(i, "--strategy");
      if (!v) return out;
      if (!strategy_by_name(*v)) {
        out.error = "unknown strategy: " + *v;
        return out;
      }
      o.strategy = *v;
    } else if (arg == "--smart-trackers") {
      o.smart_trackers = true;
    } else if (arg == "--report") {
      auto v = need_value(i, "--report");
      if (!v) return out;
      if (!is_one_of(*v, {"returned", "sources", "data", "response",
                          "contrib", "rtt", "swarm", "all"})) {
        out.error = "unknown report section: " + *v;
        return out;
      }
      if (!reports_cleared) {
        o.reports.clear();
        reports_cleared = true;
      }
      o.reports.push_back(*v);
    } else if (arg == "--dump-trace") {
      auto v = need_value(i, "--dump-trace");
      if (!v) return out;
      o.dump_trace = *v;
    } else if (arg == "--dump-sessions") {
      auto v = need_value(i, "--dump-sessions");
      if (!v) return out;
      o.dump_sessions = *v;
    } else if (arg == "--metrics-out") {
      auto v = need_value(i, "--metrics-out");
      if (!v) return out;
      o.metrics_out = *v;
    } else if (arg == "--trace-out") {
      auto v = need_value(i, "--trace-out");
      if (!v) return out;
      o.trace_out = *v;
    } else if (arg == "--trace-sim-events") {
      o.trace_sim_events = true;
    } else if (arg == "--samples-out") {
      auto v = need_value(i, "--samples-out");
      if (!v) return out;
      o.samples_out = *v;
    } else if (arg == "--sample-period") {
      if (!need_number(i, "--sample-period", &o.sample_period_s)) return out;
      if (o.sample_period_s <= 0) {
        out.error = "sample period must be positive";
        return out;
      }
    } else if (arg == "--progress") {
      o.progress = true;
    } else if (arg.rfind("--progress=", 0) == 0) {
      o.progress = true;
      if (!obs::parse_directive_integer(std::string_view(arg).substr(11),
                                        &o.progress_period_s)) {
        out.error = "bad value for --progress: " + arg.substr(11);
        return out;
      }
      if (o.progress_period_s <= 0) {
        out.error = "progress period must be positive";
        return out;
      }
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--fault-plan") {
      auto v = need_value(i, "--fault-plan");
      if (!v) return out;
      o.fault_plan = *v;
    } else if (arg == "--fault-seed") {
      if (!need_number(i, "--fault-seed", &o.fault_seed)) return out;
    } else if (arg == "--health-rules") {
      auto v = need_value(i, "--health-rules");
      if (!v) return out;
      o.health_rules = *v;
    } else if (arg == "--postmortem-dir") {
      auto v = need_value(i, "--postmortem-dir");
      if (!v) return out;
      o.postmortem_dir = *v;
    } else if (arg == "--bench-json") {
      auto v = need_value(i, "--bench-json");
      if (!v) return out;
      o.bench_json = *v;
    } else if (arg == "--causal-trace") {
      o.causal_trace = true;
    } else if (arg == "--spans-out") {
      auto v = need_value(i, "--spans-out");
      if (!v) return out;
      o.spans_out = *v;
      o.causal_trace = true;
    } else {
      out.error = "unknown option: " + arg;
      return out;
    }
  }
  if (o.sample_period_s > 0 && o.samples_out.empty()) {
    out.error = "--sample-period requires --samples-out";
    return out;
  }
  if (o.trace_sim_events && o.trace_out.empty()) {
    out.error = "--trace-sim-events requires --trace-out";
    return out;
  }
  if (o.fault_seed != 0 && o.fault_plan.empty()) {
    out.error = "--fault-seed requires --fault-plan";
    return out;
  }
  // Without a fault plan or watchdogs nothing can trigger a dump, so a
  // lone --postmortem-dir is a configuration mistake, not a quiet no-op.
  if (!o.postmortem_dir.empty() && o.health_rules.empty() &&
      o.fault_plan.empty()) {
    out.error = "--postmortem-dir requires --health-rules or --fault-plan";
    return out;
  }
  return out;
}

CliConfigResult build_config(const CliOptions& options) {
  CliConfigResult out;
  ExperimentConfig& config = out.config;

  config.scenario = options.channel == "popular"
                        ? workload::popular_channel()
                        : workload::unpopular_channel();
  if (options.viewers > 0) config.scenario.viewers = options.viewers;
  config.scenario.duration = sim::Time::minutes(options.minutes);
  config.scenario.seed = options.seed;

  for (const auto& name : options.probes) {
    auto probe = probe_by_name(name);
    if (!probe) {
      out.error = "unknown probe site: " + name;
      return out;
    }
    config.probes.push_back(*probe);
  }
  auto strategy = strategy_by_name(options.strategy);
  if (!strategy) {
    out.error = "unknown strategy: " + options.strategy;
    return out;
  }
  config.strategy = *strategy;
  config.locality_aware_trackers = options.smart_trackers;
  config.keep_traces = !options.dump_trace.empty();

  if (!options.fault_plan.empty()) {
    faults::PlanParseResult plan = faults::load_fault_plan(options.fault_plan);
    if (!plan.ok()) {
      out.error = "fault plan " + options.fault_plan + ": " + plan.error;
      return out;
    }
    config.faults.plan = std::move(plan.plan);
    config.faults.fault_seed = options.fault_seed;
  }

  if (!options.health_rules.empty()) {
    if (options.health_rules == "default") {
      out.health_rules = obs::default_health_rules();
    } else {
      obs::HealthRulesParseResult rules =
          obs::load_health_rules(options.health_rules);
      if (!rules.ok()) {
        out.error = "health rules " + options.health_rules + ": " + rules.error;
        return out;
      }
      out.health_rules = std::move(rules.rules);
    }
  }
  return out;
}

int run_cli(const CliOptions& options) {
  return run_cli(options, std::cout);
}

int run_cli(const CliOptions& options, std::ostream& out) {
  if (options.help) {
    out << cli_usage();
    return 0;
  }
  auto built = build_config(options);
  if (built.error) {
    std::cerr << "error: " << *built.error << "\n" << cli_usage();
    return 2;
  }

  // Every streamed output is opened before the run, so a path that cannot
  // be written fails at once instead of after the whole simulation.
  std::ofstream trace_file, samples_file, metrics_file, spans_file,
      bench_file, sessions_file;
  std::vector<std::pair<const std::string&, std::ofstream&>> outputs = {
      {options.trace_out, trace_file},     {options.samples_out, samples_file},
      {options.metrics_out, metrics_file}, {options.spans_out, spans_file},
      {options.bench_json, bench_file},
      {options.dump_sessions, sessions_file}};
  // One capture file per probe; the second probe with a label gets
  // PREFIX-<label>-2.trace, so no probe overwrites another's file.
  std::vector<std::string> capture_paths;
  std::map<std::string, int> label_uses;
  for (const ProbeSpec& probe : built.config.probes) {
    if (options.dump_trace.empty()) break;
    const int n = ++label_uses[probe.label];
    capture_paths.push_back(options.dump_trace + "-" + probe.label +
                            (n == 1 ? "" : "-" + std::to_string(n)) +
                            ".trace");
  }
  std::vector<std::ofstream> capture_files(capture_paths.size());
  for (std::size_t i = 0; i < capture_paths.size(); ++i)
    outputs.emplace_back(capture_paths[i], capture_files[i]);
  for (const auto& [path, file] : outputs) {
    if (path.empty()) continue;
    file.open(path);
    if (!file) {
      std::cerr << "error: could not write " << path << "\n";
      return 1;
    }
  }

  out << "channel=" << options.channel
            << " viewers=" << built.config.scenario.viewers
            << " minutes=" << options.minutes << " seed=" << options.seed
            << " strategy=" << options.strategy
            << (options.smart_trackers ? " smart-trackers" : "") << "\n\n";

  // Observability sinks live on the stack for the duration of the run; the
  // experiment borrows them through config.observability.
  obs::MetricsRegistry metrics;
  obs::RunProfiler profiler;
  std::optional<obs::NdjsonTraceSink> trace_sink;
  if (!options.trace_out.empty()) trace_sink.emplace(trace_file);
  ObservabilityConfig& ob = built.config.observability;
  if (!options.metrics_out.empty()) ob.metrics = &metrics;
  if (trace_sink.has_value()) ob.trace = &*trace_sink;
  ob.trace_sim_events = options.trace_sim_events;
  if (options.profile || !options.bench_json.empty() || options.progress)
    ob.profiler = &profiler;
  if (!options.samples_out.empty()) ob.samples_stream = &samples_file;
  if (options.sample_period_s > 0)
    ob.sample_period = sim::Time::seconds(options.sample_period_s);
  if (!options.health_rules.empty()) {
    // Watchdogs make the registry meaningful even without --metrics-out
    // (trip counters, dispatch telemetry, the post-mortem snapshot).
    ob.health_rules = &built.health_rules;
    ob.metrics = &metrics;
  }
  std::optional<obs::SpanTracker> span_tracker;
  if (options.causal_trace || !options.spans_out.empty()) {
    // ISP resolver over the same standard topology the runner builds, so
    // lineage labels match the rest of the report.
    auto asn_db = std::make_shared<net::AsnDatabase>(
        net::AsnDatabase::from_registry(net::IspRegistry::standard_topology()));
    obs::SpanTracker::Options span_options;
    span_options.isp_of = [asn_db](std::string_view ip) -> std::string {
      const auto parsed = net::IpAddress::parse(std::string(ip));
      if (!parsed.has_value()) return {};
      return std::string(net::to_string(asn_db->category_or_foreign(*parsed)));
    };
    span_tracker.emplace(std::move(span_options));
    ob.spans = &*span_tracker;
  }
  std::optional<obs::FlightRecorder> recorder;
  if (!options.postmortem_dir.empty()) {
    recorder.emplace(
        obs::FlightRecorder::Options{options.postmortem_dir, &metrics});
    ob.recorder = &*recorder;
    ob.metrics = &metrics;
  }
  // Scale observatory: --progress arms the heartbeat and the resource
  // probe. The probe's gauges land in the registry only when metrics are
  // armed too (note: the RSS / wall-throughput gauges are host-dependent,
  // so a --metrics-out dump from a --progress run is no longer comparable
  // across machines — docs/OBSERVABILITY.md, "Scale observatory").
  obs::ResourceProbe resource_probe;
  std::optional<obs::ProgressMeter> progress_meter;
  if (options.progress) {
    ob.resource = &resource_probe;
    obs::ProgressMeter::Options meter_options;
    meter_options.out = &std::cerr;
    meter_options.total = built.config.scenario.duration;
    progress_meter.emplace(meter_options);
    ob.progress = &*progress_meter;
    ob.progress_period = sim::Time::seconds(options.progress_period_s);
  }

  ExperimentResult result = run_experiment(built.config);

  auto wants = [&](const char* section) {
    return std::any_of(options.reports.begin(), options.reports.end(),
                       [&](const std::string& r) {
                         return r == section || r == "all";
                       });
  };

  for (std::size_t i = 0; i < result.probes.size(); ++i) {
    const ProbeResult& probe = result.probes[i];
    out << "== probe " << probe.label << " ("
              << net::to_string(probe.category) << ", "
              << probe.ip.to_string() << ") ==\n";
    if (wants("returned")) print_returned_addresses(out, probe.analysis);
    if (wants("sources")) print_list_sources(out, probe.analysis);
    if (wants("data")) {
      print_data_by_isp(out, probe.analysis);
      out << "locality: "
                << pct(probe.analysis.byte_locality(probe.category))
                << " of bytes from " << net::to_string(probe.category)
                << " peers; continuity "
                << pct(probe.counters.continuity()) << "\n";
    }
    if (wants("response")) {
      print_response_times(out, probe.analysis, false);
      print_response_times(out, probe.analysis, true);
    }
    if (wants("contrib")) print_contributions(out, probe.analysis);
    if (wants("rtt")) print_rtt_rank(out, probe.analysis);

    if (!capture_files.empty()) {
      capture::write_trace(capture_files[i], *probe.trace);
      if (!capture_files[i].flush()) {
        std::cerr << "error: could not write " << capture_paths[i] << "\n";
        return 1;
      }
      out << "trace written: " << capture_paths[i] << " ("
          << probe.trace->size() << " records)\n";
    }
    out << "\n";
  }
  if (wants("swarm")) {
    print_traffic_matrix(out, result.traffic);
    print_peer_counters(out, result.counter_totals);
  }
  if (!built.config.faults.plan.empty()) {
    out << "faults: windows applied " << result.fault_windows_applied
        << ", reverted " << result.fault_windows_reverted
        << ", peers crashed " << result.fault_peers_crashed << "\n";
    if (!result.samples.empty()) {
      const auto rows =
          faults::analyze_resilience(built.config.faults.plan, result.samples);
      faults::print_fault_timeline(out, rows);
    }
    out << "\n";
  }
  if (!options.health_rules.empty()) {
    print_health_summary(out, result.health);
    out << "\n";
  }
  std::vector<obs::CriticalPath> critical_paths;
  if (span_tracker.has_value()) {
    critical_paths = span_tracker->critical_paths();
    print_referral_lineage(out, span_tracker->lineage(),
                           span_tracker->referral_share_series());
    print_critical_paths(out, critical_paths);
    out << "\n";
  }
  if (recorder.has_value()) {
    out << "post-mortems written: " << recorder->dumps_written();
    if (recorder->dump_failures() > 0)
      out << " (" << recorder->dump_failures() << " failed)";
    if (recorder->dumps_written() > 0)
      out << " in " << options.postmortem_dir;
    out << "\n";
  }
  if (!options.dump_sessions.empty()) {
    write_sessions_csv(sessions_file, result.sessions);
    if (!sessions_file.flush()) {
      std::cerr << "error: could not write " << options.dump_sessions
                << "\n";
      return 1;
    }
    out << "sessions written: " << options.dump_sessions << " ("
        << result.sessions.size() << " rows)\n";
  }
  if (!options.metrics_out.empty()) {
    metrics.write_ndjson(metrics_file);
    out << "metrics written: " << options.metrics_out << " ("
        << metrics.size() << " series)\n";
  }
  if (trace_sink.has_value()) {
    out << "trace written: " << options.trace_out << " ("
        << trace_sink->events_written() << " events)\n";
  }
  if (!options.samples_out.empty()) {
    out << "samples written: " << options.samples_out << " ("
        << result.samples.size() << " samples)\n";
  }
  if (!options.spans_out.empty()) {
    span_tracker->write_ndjson(spans_file);
    out << "spans written: " << options.spans_out << " ("
        << span_tracker->span_count() << " spans, "
        << span_tracker->referrals().size() << " referrals, "
        << critical_paths.size() << " critical paths)\n";
  }
  if (options.profile) profiler.print(out);
  if (!options.bench_json.empty()) {
    // Per-category run telemetry in the shared BENCH schema: one entry per
    // event category plus a "run.total" row carrying the peak queue depth.
    std::vector<obs::BenchEntry> entries;
    for (const auto& [category, cs] : profiler.categories()) {
      obs::BenchEntry e;
      e.name = "run." + (category.empty() ? std::string("untagged") : category);
      e.iterations = cs.events;
      e.ns_per_op = cs.events == 0
                        ? 0.0
                        : cs.wall_seconds / static_cast<double>(cs.events) * 1e9;
      entries.push_back(std::move(e));
    }
    obs::BenchEntry total;
    total.name = "run.total";
    total.iterations = profiler.events_total();
    total.ns_per_op =
        profiler.events_total() == 0
            ? 0.0
            : profiler.wall_seconds_total() /
                  static_cast<double>(profiler.events_total()) * 1e9;
    total.peak_queue_depth = profiler.max_queue_depth();
    entries.push_back(std::move(total));
    obs::write_bench_json(bench_file, std::move(entries));
    out << "bench telemetry written: " << options.bench_json << "\n";
  }
  return 0;
}

}  // namespace ppsim::core
