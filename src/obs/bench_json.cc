#include "obs/bench_json.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "obs/json.h"

namespace ppsim::obs {

void write_bench_json(std::ostream& os, std::vector<BenchEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const BenchEntry& a, const BenchEntry& b) {
              return a.name < b.name;
            });
  os << "{\"bench_schema\":\"ppsim-bench-v1\",\"benchmarks\":"
     << entries.size() << "}\n";
  for (const BenchEntry& e : entries) {
    os << "{\"name\":";
    write_json_string(os, e.name);
    os << ",\"iterations\":" << e.iterations << ",\"ns_per_op\":";
    write_json_double(os, e.ns_per_op);
    os << ",\"peak_queue_depth\":" << e.peak_queue_depth;
    if (e.rss_peak_bytes > 0) os << ",\"rss_peak_bytes\":" << e.rss_peak_bytes;
    if (e.wall_s > 0) {
      os << ",\"wall_s\":";
      write_json_double(os, e.wall_s);
    }
    if (e.allocs_per_op > 0) {
      os << ",\"allocs_per_op\":";
      write_json_double(os, e.allocs_per_op);
    }
    os << "}\n";
  }
}

std::vector<BenchEntry> read_bench_json(std::istream& is,
                                        std::size_t* dropped) {
  std::vector<BenchEntry> out;
  if (dropped != nullptr) *dropped = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (find_json_value(line, "bench_schema") != std::string_view::npos)
      continue;
    BenchEntry e;
    const bool ok = read_json_string(line, "name", &e.name) &&
                    read_json_u64(line, "iterations", &e.iterations) &&
                    read_json_double(line, "ns_per_op", &e.ns_per_op) &&
                    read_json_u64(line, "peak_queue_depth",
                                  &e.peak_queue_depth);
    if (!ok) {
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    // Optional macro-bench fields.
    read_json_u64(line, "rss_peak_bytes", &e.rss_peak_bytes);
    read_json_double(line, "wall_s", &e.wall_s);
    read_json_double(line, "allocs_per_op", &e.allocs_per_op);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace ppsim::obs
