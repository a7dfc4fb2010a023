#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace ppsim::core {

/// Options of the `ppsim` command-line driver. Parsing is factored out of
/// the binary so it is unit-testable.
struct CliOptions {
  std::string channel = "popular";  // popular | unpopular
  int viewers = 0;                  // 0 = scenario default
  int minutes = 10;
  std::uint64_t seed = 1;
  std::vector<std::string> probes = {"tele"};  // tele|cnc|cer|mason
  std::string strategy = "pplive";  // pplive|tracker-only|isp-biased|no-rush
  bool smart_trackers = false;
  std::string dump_trace;     // path prefix; empty = no dump
  std::string dump_sessions;  // CSV path; empty = no dump
  /// Report sections: any of returned, sources, data, response, contrib,
  /// rtt, swarm — or "all".
  std::vector<std::string> reports = {"data"};
  // Observability sinks (docs/OBSERVABILITY.md); all off by default.
  std::string metrics_out;    // metrics NDJSON path; empty = off
  std::string trace_out;      // protocol-event trace NDJSON path; empty = off
  std::string samples_out;    // time-series samples NDJSON path; empty = off
  int sample_period_s = 0;    // 0 = the runner's default period
  bool progress = false;      // stderr heartbeat; arms the resource probe
  int progress_period_s = 30;  // heartbeat cadence in sim-seconds
  bool trace_sim_events = false;  // add per-sim-event rows to trace_out
  bool profile = false;           // print per-category wall-clock profile
  // Fault injection (docs/FAULTS.md); off by default.
  std::string fault_plan;         // plan file path; empty = no faults
  std::uint64_t fault_seed = 0;   // 0 = derive from the run seed
  // Health watchdogs & post-mortems (docs/OBSERVABILITY.md); off by default.
  std::string health_rules;    // rule file path, or "default"; empty = off
  std::string postmortem_dir;  // flight-recorder bundle dir; empty = off
  std::string bench_json;      // run-telemetry BENCH json path; empty = off
  // Causal tracing (docs/OBSERVABILITY.md); off by default.
  bool causal_trace = false;  // span ids + provenance + lineage report
  std::string spans_out;      // spans NDJSON path; implies causal_trace
  bool help = false;
};

/// Parses argv; returns an error message on invalid input.
struct CliParseResult {
  CliOptions options;
  std::optional<std::string> error;
};
CliParseResult parse_cli(int argc, const char* const* argv);

/// Usage text for --help.
std::string cli_usage();

/// Builds the ExperimentConfig the options describe; error when names do
/// not resolve (unknown probe/strategy/channel).
struct CliConfigResult {
  ExperimentConfig config;
  /// Storage for --health-rules; config.observability.health_rules is wired
  /// to this by run_cli (the config only borrows the rule set).
  obs::HealthRuleSet health_rules;
  std::optional<std::string> error;
};
CliConfigResult build_config(const CliOptions& options);

/// Runs the experiment and prints the requested report sections to `out`
/// (std::cout in the binary). Returns a process exit code.
int run_cli(const CliOptions& options, std::ostream& out);
int run_cli(const CliOptions& options);

}  // namespace ppsim::core
