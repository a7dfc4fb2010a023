#include "obs/sampler.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <set>
#include <string>

#include "obs/json.h"

namespace ppsim::obs {

std::uint64_t matrix_total(const IspMatrix& m) {
  std::uint64_t t = 0;
  for (const auto& row : m)
    for (const auto b : row) t += b;
  return t;
}

std::uint64_t matrix_intra_isp(const IspMatrix& m) {
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < m.size(); ++i) t += m[i][i];
  return t;
}

const TrafficSample& TrafficSampler::record(sim::Time now,
                                            const IspMatrix& cumulative,
                                            double neighbor_same_isp_share,
                                            double avg_continuity,
                                            std::uint64_t alive_peers) {
  TrafficSample s;
  s.t = now;
  s.bytes = cumulative;
  const std::uint64_t total = matrix_total(cumulative);
  const std::uint64_t intra = matrix_intra_isp(cumulative);
  s.interval_bytes = total - matrix_total(prev_);
  s.interval_same_isp_bytes = intra - matrix_intra_isp(prev_);
  s.same_isp_share_cum =
      total == 0 ? 0.0
                 : static_cast<double>(intra) / static_cast<double>(total);
  s.same_isp_share_interval =
      s.interval_bytes == 0
          ? 0.0
          : static_cast<double>(s.interval_same_isp_bytes) /
                static_cast<double>(s.interval_bytes);
  s.neighbor_same_isp_share = neighbor_same_isp_share;
  s.avg_continuity = avg_continuity;
  s.alive_peers = alive_peers;
  prev_ = cumulative;
  samples_.push_back(s);
  return samples_.back();
}

void write_sample_ndjson(std::ostream& os, const TrafficSample& s) {
  os << "{\"t\":";
  write_json_sim_time(os, s.t);
  os << ",\"alive\":" << s.alive_peers << ",\"continuity\":";
  write_json_double(os, s.avg_continuity);
  os << ",\"neighbor_same_isp\":";
  write_json_double(os, s.neighbor_same_isp_share);
  os << ",\"same_isp_cum\":";
  write_json_double(os, s.same_isp_share_cum);
  os << ",\"same_isp_interval\":";
  write_json_double(os, s.same_isp_share_interval);
  os << ",\"interval_bytes\":" << s.interval_bytes
     << ",\"interval_same_isp_bytes\":" << s.interval_same_isp_bytes
     << ",\"bytes\":[";
  for (std::size_t i = 0; i < s.bytes.size(); ++i) {
    if (i > 0) os << ',';
    os << '[';
    for (std::size_t j = 0; j < s.bytes[i].size(); ++j) {
      if (j > 0) os << ',';
      os << s.bytes[i][j];
    }
    os << ']';
  }
  os << "]}\n";
}

void write_samples_ndjson(std::ostream& os,
                          const std::vector<TrafficSample>& samples) {
  for (const auto& s : samples) write_sample_ndjson(os, s);
}

namespace {

/// Parses the "bytes" matrix: one bracketed row of cells per source ISP.
bool parse_matrix(std::string_view line, IspMatrix* out) {
  const std::size_t pos = find_json_value(line, "bytes");
  if (pos == std::string_view::npos) return false;
  const char* p = line.data() + pos;
  const char* end = line.data() + line.size();
  if (p == end || *p++ != '[') return false;
  for (auto& row : *out) {
    if (p != end && *p == ',') ++p;
    if (p == end || *p++ != '[') return false;
    for (auto& cell : row) {
      if (p != end && *p == ',') ++p;
      const auto [next, ec] = std::from_chars(p, end, cell);
      if (ec != std::errc{}) return false;
      p = next;
    }
    if (p == end || *p++ != ']') return false;
  }
  return true;
}

}  // namespace

std::vector<TrafficSample> read_samples_ndjson(std::istream& is,
                                               std::size_t* dropped,
                                               std::string* error) {
  std::vector<TrafficSample> out;
  if (dropped != nullptr) *dropped = 0;
  if (error != nullptr) error->clear();
  std::set<std::int64_t> seen_micros;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    TrafficSample s;
    const bool ok =
        read_json_sim_time(line, "t", &s.t) &&
        read_json_u64(line, "alive", &s.alive_peers) &&
        read_json_double(line, "continuity", &s.avg_continuity) &&
        read_json_double(line, "neighbor_same_isp",
                         &s.neighbor_same_isp_share) &&
        read_json_double(line, "same_isp_cum", &s.same_isp_share_cum) &&
        read_json_double(line, "same_isp_interval",
                         &s.same_isp_share_interval) &&
        read_json_u64(line, "interval_bytes", &s.interval_bytes) &&
        read_json_u64(line, "interval_same_isp_bytes",
                      &s.interval_same_isp_bytes) &&
        parse_matrix(line, &s.bytes);
    if (!ok) {
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    if (!seen_micros.insert(s.t.as_micros()).second) {
      // Each row holds the full (src_isp, dst_isp) matrix for its time, so
      // a repeated t duplicates every pair cell — the file is corrupt (e.g.
      // two runs' files were concatenated). Reject it outright.
      if (error != nullptr)
        *error = "duplicate sample row at t=" + s.t.to_string() +
                 " (same time, src_isp, dst_isp cells already present)";
      return {};
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace ppsim::obs
