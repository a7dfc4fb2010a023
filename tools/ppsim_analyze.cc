// Offline trace analysis: re-runs the paper's analysis pipeline over an
// archived probe capture (written by `ppsim --dump-trace` or
// capture::write_trace_file) without re-running any simulation — the
// simulated equivalent of re-processing the paper's saved Wireshark
// captures.
//
//   ppsim-analyze <trace-file> [--probe-ip A.B.C.D] [--section NAME ...]
//   ppsim-analyze --samples <samples.ndjson>
//   ppsim-analyze --samples <samples.ndjson> --fault-plan <plan.txt>
//   ppsim-analyze --health <trace.ndjson>
//   ppsim-analyze --postmortem <bundle.ndjson>
//   ppsim-analyze --spans <spans.ndjson>
//   ppsim-analyze --fleet --node IP=metrics[,samples] ...
//
// The probe IP is inferred from the records' local address when not given.
// Sections: returned, sources, data, response, contrib, rtt, all.
// --samples switches to time-series mode: it reads the NDJSON written by
// `ppsim --samples-out` and prints the Figure-6-style locality series, no
// simulation or packet trace involved. Adding --fault-plan also prints the
// per-window resilience timeline (continuity dip, time-to-recover,
// intra-ISP-share trajectory) for the plan the samples were recorded under
// (docs/FAULTS.md).
// --health reads a protocol-event trace (`ppsim --trace-out`) and prints
// the per-rule watchdog timeline — trip/clear sim-times and dip depth — in
// the same table style as the fault timeline, so watchdog runs and
// fault-plan runs read side by side (docs/OBSERVABILITY.md).
// --postmortem summarizes a flight-recorder bundle written under
// `ppsim --postmortem-dir`: the trigger, buffered event counts per event
// name, and the surrounding sampler window.
// --spans reads a causal-tracing artifact (`ppsim --spans-out`) and renders
// the referral-lineage table, the same-ISP referral-share series, and the
// startup critical-path percentiles from the recorded rows alone — no
// simulation involved (docs/OBSERVABILITY.md, "Causal tracing").
// --fleet folds per-node wire sink files (--metrics-out / --samples-out of
// each ppsim-node) into the fleet view: per-node table, merged counters and
// the global traffic matrix — the offline twin of ppsim-collect, sharing
// its fold code so both produce byte-identical artifacts.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "capture/analyzer.h"
#include "capture/trace_io.h"
#include "core/report.h"
#include "faults/plan.h"
#include "faults/resilience.h"
#include "net/asn_db.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/span_tracker.h"
#include "obs/telemetry.h"
#include "wire/collector.h"

namespace {

// The report sections a trace analysis prints (--section).
constexpr std::string_view kSections[] = {"returned", "sources", "data",
                                          "response", "contrib", "rtt",
                                          "all"};

int analyze_samples(const std::string& path, const std::string& plan_path) {
  using namespace ppsim;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::size_t dropped = 0;
  std::string parse_error;
  const auto samples = obs::read_samples_ndjson(in, &dropped, &parse_error);
  if (samples.empty()) {
    if (!parse_error.empty())
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   parse_error.c_str());
    else
      std::fprintf(stderr, "error: %s holds no valid samples\n", path.c_str());
    return 1;
  }
  std::printf("samples: %s (%zu rows", path.c_str(), samples.size());
  if (dropped > 0) std::printf(", %zu malformed dropped", dropped);
  std::printf(")\n\n");
  core::print_locality_timeseries(std::cout, samples);
  if (!plan_path.empty()) {
    faults::PlanParseResult plan = faults::load_fault_plan(plan_path);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: fault plan %s: %s\n", plan_path.c_str(),
                   plan.error.c_str());
      return 1;
    }
    std::printf("\n");
    const auto rows = faults::analyze_resilience(plan.plan, samples);
    faults::print_fault_timeline(std::cout, rows);
  }
  return 0;
}

int analyze_health(const std::string& path) {
  using namespace ppsim;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::size_t dropped = 0;
  const auto transitions = obs::read_health_events_ndjson(in, &dropped);
  if (transitions.empty()) {
    std::fprintf(stderr, "error: %s holds no health events\n", path.c_str());
    return 1;
  }
  std::printf("health events: %s (%zu transitions", path.c_str(),
              transitions.size());
  if (dropped > 0) std::printf(", %zu malformed dropped", dropped);
  std::printf(")\n\n");
  obs::print_health_timeline(std::cout,
                             obs::analyze_health_timeline(transitions));
  return 0;
}

int analyze_postmortem(const std::string& path) {
  using namespace ppsim;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string line, reason;
  if (!std::getline(in, line) ||
      !obs::read_json_string(line, "postmortem", &reason)) {
    std::fprintf(stderr, "error: %s is not a post-mortem bundle\n",
                 path.c_str());
    return 1;
  }
  std::ostringstream trigger_t;
  if (sim::Time t; obs::read_json_sim_time(line, "t", &t))
    obs::write_json_sim_time(trigger_t, t);
  else
    trigger_t << '?';
  std::printf("post-mortem: %s\n", path.c_str());
  std::printf("  trigger: %s at t=%ss\n", reason.c_str(),
              trigger_t.str().c_str());

  // Walk the section markers; count rows and tally event names.
  std::string section;
  std::map<std::string, std::uint64_t> events_by_name;
  std::uint64_t samples = 0, metrics = 0;
  while (std::getline(in, line)) {
    if (obs::read_json_string(line, "section", &section)) continue;
    if (section == "events") {
      std::string ev;
      obs::read_json_string(line, "ev", &ev);
      ++events_by_name[ev];
    } else if (section == "samples") {
      ++samples;
    } else if (section == "metrics") {
      ++metrics;
    }
  }
  std::uint64_t events = 0;
  for (const auto& [name, n] : events_by_name) events += n;
  std::printf("  buffered events: %llu\n",
              static_cast<unsigned long long>(events));
  for (const auto& [name, n] : events_by_name) {
    std::printf("    %-24s %8llu\n",
                name.empty() ? "(unnamed)" : name.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("  sampler window rows: %llu\n",
              static_cast<unsigned long long>(samples));
  std::printf("  metric rows: %llu\n",
              static_cast<unsigned long long>(metrics));
  return 0;
}

int analyze_spans(const std::string& path) {
  using namespace ppsim;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  obs::SpanFileData data;
  std::string error;
  if (!obs::read_spans_ndjson(in, &data, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("spans: %s (%llu spans, %zu referrals, %zu critical paths)\n\n",
              path.c_str(),
              static_cast<unsigned long long>(data.header_spans),
              data.referrals.size(), data.paths.size());
  // The share series is recomputed from the referral rows (the file's
  // share rows are redundant), using the writer's default bucket width.
  core::print_referral_lineage(
      std::cout, obs::summarize_lineage(data.referrals),
      obs::referral_share_series(data.referrals, sim::Time::seconds(60)));
  core::print_critical_paths(std::cout, data.paths);
  return 0;
}

// --fleet: offline fold of per-node sink files through the exact code path
// ppsim-collect uses live (wire::fold_fleet_metrics / fold_fleet_matrix),
// so the artifacts the two produce over the same nodes are byte-identical —
// the self-check the collector smoke pins (docs/OBSERVABILITY.md, "Fleet
// telemetry").
int analyze_fleet(const std::vector<std::string>& node_specs,
                  const std::string& metrics_out,
                  const std::string& matrix_out) {
  using namespace ppsim;
  std::map<net::IpAddress, std::unique_ptr<obs::MetricsRegistry>> regs;
  std::map<net::IpAddress, obs::TrafficSample> last_samples;
  std::map<net::IpAddress, std::size_t> sample_counts;

  for (const auto& spec : node_specs) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr,
                   "error: --node wants IP=metrics.ndjson[,samples.ndjson], "
                   "got '%s'\n",
                   spec.c_str());
      return 2;
    }
    const auto ip = net::IpAddress::parse(spec.substr(0, eq));
    if (!ip.has_value()) {
      std::fprintf(stderr, "error: --node: bad IP in '%s'\n", spec.c_str());
      return 2;
    }
    const std::string paths = spec.substr(eq + 1);
    const auto comma = paths.find(',');
    const std::string metrics_path = paths.substr(0, comma);
    const std::string samples_path =
        comma == std::string::npos ? "" : paths.substr(comma + 1);

    if (!metrics_path.empty()) {
      std::ifstream in(metrics_path);
      if (!in) {
        std::fprintf(stderr, "warning: %s: cannot read, node %s skipped\n",
                     metrics_path.c_str(), spec.substr(0, eq).c_str());
        continue;
      }
      auto reg = std::make_unique<obs::MetricsRegistry>();
      std::size_t skipped = 0;
      obs::read_metrics_ndjson(in, reg.get(), &skipped);
      if (skipped > 0)
        std::fprintf(stderr, "warning: %s: %zu rows skipped\n",
                     metrics_path.c_str(), skipped);
      regs.emplace(*ip, std::move(reg));
    }
    if (!samples_path.empty()) {
      std::ifstream in(samples_path);
      if (in) {
        const auto samples = obs::read_samples_ndjson(in);
        if (!samples.empty()) {
          last_samples.emplace(*ip, samples.back());
          sample_counts.emplace(*ip, samples.size());
        }
      }
    }
  }
  if (regs.empty() && last_samples.empty()) {
    std::fprintf(stderr, "error: --fleet folded zero nodes\n");
    return 1;
  }

  std::map<net::IpAddress, const obs::MetricsRegistry*> reg_view;
  for (const auto& [ip, reg] : regs) reg_view.emplace(ip, reg.get());
  std::map<net::IpAddress, const obs::TrafficSample*> sample_view;
  for (const auto& [ip, s] : last_samples) sample_view.emplace(ip, &s);

  obs::MetricsRegistry merged;
  wire::fold_fleet_metrics(reg_view, &merged);
  obs::TrafficSample fleet;
  const bool have_matrix = wire::fold_fleet_matrix(sample_view, &fleet);

  std::printf("fleet: %zu nodes (%zu with metrics, %zu with samples)\n\n",
              std::max(regs.size(), last_samples.size()), regs.size(),
              last_samples.size());
  std::printf("  %-16s %12s %10s %10s %6s %8s\n", "node", "last_t",
              "intra_isp", "contin", "alive", "samples");
  for (const auto& [ip, s] : last_samples) {
    std::printf("  %-16s %12.6f %10.3f %10.3f %6llu %8zu\n",
                ip.to_string().c_str(), s.t.as_seconds(),
                s.same_isp_share_cum, s.avg_continuity,
                static_cast<unsigned long long>(s.alive_peers),
                sample_counts[ip]);
  }
  if (have_matrix) {
    std::printf(
        "\nfleet totals: t=%.6f intra_isp_share=%.3f interval_share=%.3f "
        "alive=%llu continuity=%.3f bytes=%llu\n",
        fleet.t.as_seconds(), fleet.same_isp_share_cum,
        fleet.same_isp_share_interval,
        static_cast<unsigned long long>(fleet.alive_peers),
        fleet.avg_continuity,
        static_cast<unsigned long long>(obs::matrix_total(fleet.bytes)));
  }
  std::printf("merged metric instances: %zu\n", merged.size());

  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    merged.write_ndjson(os);
  }
  if (!matrix_out.empty()) {
    std::ofstream os(matrix_out);
    if (have_matrix) obs::write_sample_ndjson(os, fleet);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppsim;

  std::string path;
  std::string probe_ip_text;
  std::string samples_path;
  std::string fault_plan_path;
  std::string health_path;
  std::string postmortem_path;
  std::string spans_path;
  bool fleet = false;
  std::vector<std::string> fleet_nodes;
  std::string fleet_metrics_out;
  std::string fleet_matrix_out;
  std::vector<std::string> sections;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A valued option reads the next argument; none left is a usage error.
    const auto value = [&]() -> std::string {
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      std::exit(2);
    };
    if (arg == "--probe-ip") {
      probe_ip_text = value();
    } else if (arg == "--section") {
      const std::string name = value();
      if (std::find(std::begin(kSections), std::end(kSections), name) ==
          std::end(kSections)) {
        std::fprintf(stderr, "unknown section: %s\n", name.c_str());
        return 2;
      }
      sections.push_back(name);
    } else if (arg == "--samples") {
      samples_path = value();
    } else if (arg == "--fault-plan") {
      fault_plan_path = value();
    } else if (arg == "--health") {
      health_path = value();
    } else if (arg == "--postmortem") {
      postmortem_path = value();
    } else if (arg == "--spans") {
      spans_path = value();
    } else if (arg == "--fleet") {
      fleet = true;
    } else if (arg == "--node") {
      fleet_nodes.push_back(value());
    } else if (arg == "--fleet-metrics-out") {
      fleet_metrics_out = value();
    } else if (arg == "--fleet-matrix-out") {
      fleet_matrix_out = value();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ppsim-analyze <trace-file> [--probe-ip A.B.C.D] "
          "[--section returned|sources|data|response|contrib|rtt|all ...]\n"
          "       ppsim-analyze --samples <samples.ndjson> "
          "[--fault-plan plan.txt]\n"
          "       ppsim-analyze --health <trace.ndjson>\n"
          "       ppsim-analyze --postmortem <bundle.ndjson>\n"
          "       ppsim-analyze --spans <spans.ndjson>\n"
          "       ppsim-analyze --fleet --node IP=metrics[,samples] ...\n"
          "         [--fleet-metrics-out F] [--fleet-matrix-out F]\n");
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!fault_plan_path.empty() && samples_path.empty()) {
    std::fprintf(stderr, "error: --fault-plan requires --samples\n");
    return 2;
  }
  if (fleet) {
    if (fleet_nodes.empty()) {
      std::fprintf(stderr, "error: --fleet requires at least one --node\n");
      return 2;
    }
    return analyze_fleet(fleet_nodes, fleet_metrics_out, fleet_matrix_out);
  }
  if (!health_path.empty()) return analyze_health(health_path);
  if (!postmortem_path.empty()) return analyze_postmortem(postmortem_path);
  if (!spans_path.empty()) return analyze_spans(spans_path);
  if (!samples_path.empty())
    return analyze_samples(samples_path, fault_plan_path);
  if (path.empty()) {
    std::fprintf(stderr, "error: no trace file given (see --help)\n");
    return 2;
  }
  if (sections.empty()) sections = {"data"};

  std::size_t dropped = 0;
  auto trace = capture::read_trace_file(path, &dropped);
  if (!trace) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  if (trace->empty()) {
    std::fprintf(stderr, "error: %s holds no valid records\n", path.c_str());
    return 1;
  }

  net::IpAddress probe = trace->front().local;
  if (!probe_ip_text.empty()) {
    auto parsed = net::IpAddress::parse(probe_ip_text);
    if (!parsed) {
      std::fprintf(stderr, "error: bad --probe-ip %s\n",
                   probe_ip_text.c_str());
      return 2;
    }
    probe = *parsed;
  }

  // Attribute addresses with the standard topology's ASN database, exactly
  // as the experiments do. Tracker addresses cannot be recovered from the
  // trace alone; TrackerReply records are still classified correctly by
  // message type, so only the "_s" row split in the sources section relies
  // on this and tracker rows are labelled by replier ISP regardless.
  auto registry = net::IspRegistry::standard_topology();
  auto db = net::AsnDatabase::from_registry(registry);
  auto analysis = capture::analyze_trace(*trace, db, probe, {});

  const net::IspCategory probe_cat = db.category_or_foreign(probe);
  std::printf("trace: %s (%zu records", path.c_str(), trace->size());
  if (dropped > 0) std::printf(", %zu malformed dropped", dropped);
  std::printf("), probe %s (%s)\n\n", probe.to_string().c_str(),
              std::string(net::to_string(probe_cat)).c_str());

  auto wants = [&](const char* name) {
    for (const auto& s : sections)
      if (s == name || s == "all") return true;
    return false;
  };
  if (wants("returned")) core::print_returned_addresses(std::cout, analysis);
  if (wants("sources")) core::print_list_sources(std::cout, analysis);
  if (wants("data")) {
    core::print_data_by_isp(std::cout, analysis);
    std::cout << "locality: "
              << core::pct(analysis.byte_locality(probe_cat)) << " of bytes "
              << "from " << net::to_string(probe_cat) << " peers\n";
  }
  if (wants("response")) {
    core::print_response_times(std::cout, analysis, false);
    core::print_response_times(std::cout, analysis, true);
  }
  if (wants("contrib")) core::print_contributions(std::cout, analysis);
  if (wants("rtt")) core::print_rtt_rank(std::cout, analysis);
  return 0;
}
