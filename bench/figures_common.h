#pragma once

// Shared harness for the figure-reproduction benches: flag parsing and the
// standard experiment configurations corresponding to the paper's probe
// deployments. Every bench accepts:
//
//   --viewers N     scale the popular channel's audience (default 300;
//                   the unpopular channel gets a proportional share)
//   --minutes M     capture duration in simulated minutes (default 10;
//                   the paper captured 2-hour sessions — pass 120 to match)
//   --seed S        reproducible run seed, any uint64
//
// N and M are positive. Any other argument, a missing value or a value
// that is not a whole number in range is a usage error (exit 2).

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/experiment.h"
#include "obs/bench_json.h"
#include "workload/scenario.h"

namespace ppsim::bench {

struct Scale {
  int popular_viewers = 300;
  int unpopular_viewers = 64;
  int minutes = 10;
  std::uint64_t seed = 20081012;  // a representative capture day (see Fig 6)
};

/// Reads the flags above into `scale`, each value as a whole token.
/// Returns "" or the error: "unknown option: --viewer", "missing value for
/// --minutes" or "bad value for --viewers: abc".
std::string parse_flags(int argc, const char* const* argv, Scale* scale);

/// The same, for a bench's main(): on an error, prints it with the usage
/// line to stderr and exits 2.
Scale parse_flags(int argc, char** argv);

/// The --bench-json emitter of bench_scale and bench_micro: writes
/// `entries` to `path` via obs::write_bench_json and prints a confirmation
/// line. Returns false (and reports to stderr) when the file cannot be
/// written. No-op returning true when `path` is empty, so call sites can
/// pass their flag's value verbatim.
bool emit_bench_json(const std::string& path,
                     std::vector<obs::BenchEntry> entries);

/// Experiment configs mirroring the paper's four headline workloads.
core::ExperimentConfig popular_config(const Scale& scale,
                                      std::vector<core::ProbeSpec> probes);
core::ExperimentConfig unpopular_config(const Scale& scale,
                                        std::vector<core::ProbeSpec> probes);

/// Runs the workload on `days` consecutive capture days (distinct seeds)
/// and merges each probe's analyses, like pooling several of the paper's
/// daily measurement sessions. Stabilizes single-day variance while
/// preserving every distributional shape. Traffic matrices are summed.
struct MultiDayResult {
  std::vector<core::ProbeResult> probes;  // analyses merged across days
  core::TrafficMatrix traffic;
};
MultiDayResult run_days(const Scale& scale, bool popular,
                        std::vector<core::ProbeSpec> probes, int days = 3);

/// Prints the standard run banner (workload, scale, seed).
void print_banner(std::ostream& os, const char* what, const Scale& scale);

}  // namespace ppsim::bench
