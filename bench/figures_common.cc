#include "figures_common.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/directive.h"

namespace ppsim::bench {

std::string parse_flags(int argc, const char* const* argv, Scale* scale) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--viewers" && flag != "--minutes" && flag != "--seed" &&
        flag != "--bench-json")
      return "unknown option: " + flag;
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    const std::string bad = "bad value for " + flag + ": " + value;
    if (flag == "--seed") {
      if (!obs::parse_directive_integer(value, &scale->seed)) return bad;
    } else if (flag == "--bench-json") {
      scale->bench_json = value;
    } else {
      int n = 0;
      if (!obs::parse_directive_integer(value, &n) || n <= 0) return bad;
      if (flag == "--minutes") {
        scale->minutes = n;
      } else {
        scale->popular_viewers = n;
        scale->unpopular_viewers =
            static_cast<int>(std::max<std::int64_t>(30, n * 64LL / 300));
      }
    }
  }
  return "";
}

Scale parse_flags(int argc, char** argv) {
  Scale scale;
  if (const std::string error = parse_flags(argc, argv, &scale);
      !error.empty()) {
    std::fprintf(stderr,
                 "error: %s\nusage: %s [--viewers N] [--minutes M] "
                 "[--seed S] [--bench-json F]\n",
                 error.c_str(), argv[0]);
    std::exit(2);
  }
  return scale;
}

bool emit_bench_json(const std::string& path,
                     std::vector<obs::BenchEntry> entries) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write bench telemetry to %s\n",
                 path.c_str());
    return false;
  }
  obs::write_bench_json(out, std::move(entries));
  std::printf("bench telemetry written: %s\n", path.c_str());
  return true;
}

core::ExperimentConfig popular_config(const Scale& scale,
                                      std::vector<core::ProbeSpec> probes) {
  core::ExperimentConfig config;
  config.scenario = workload::popular_channel();
  config.scenario.viewers = scale.popular_viewers;
  config.scenario.duration = sim::Time::minutes(scale.minutes);
  config.scenario.seed = scale.seed;
  config.probes = std::move(probes);
  return config;
}

core::ExperimentConfig unpopular_config(const Scale& scale,
                                        std::vector<core::ProbeSpec> probes) {
  core::ExperimentConfig config;
  config.scenario = workload::unpopular_channel();
  config.scenario.viewers = scale.unpopular_viewers;
  config.scenario.duration = sim::Time::minutes(scale.minutes);
  config.scenario.seed = scale.seed + 1;
  config.probes = std::move(probes);
  return config;
}

MultiDayResult run_days(const Scale& scale, bool popular,
                        std::vector<core::ProbeSpec> probes, int days) {
  MultiDayResult out;
  for (int day = 0; day < days; ++day) {
    Scale day_scale = scale;
    day_scale.seed = scale.seed + static_cast<std::uint64_t>(day) * 1000003;
    auto config = popular ? popular_config(day_scale, probes)
                          : unpopular_config(day_scale, probes);
    auto result = core::run_experiment(config);
    for (std::size_t i = 0; i < net::kNumIspCategories; ++i)
      for (std::size_t j = 0; j < net::kNumIspCategories; ++j)
        out.traffic.bytes[i][j] += result.traffic.bytes[i][j];
    if (day == 0) {
      out.probes = std::move(result.probes);
    } else {
      for (std::size_t p = 0; p < out.probes.size(); ++p) {
        capture::merge_into(out.probes[p].analysis,
                            result.probes[p].analysis);
      }
    }
  }
  return out;
}

void print_banner(std::ostream& os, const char* what, const Scale& scale) {
  os << "=== " << what << " ===\n"
     << "(popular viewers=" << scale.popular_viewers
     << ", unpopular viewers=" << scale.unpopular_viewers
     << ", duration=" << scale.minutes << " sim-min, seed=" << scale.seed
     << "; paper scale: thousands of viewers, 120 min)\n\n";
}

}  // namespace ppsim::bench
