#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/isp.h"
#include "sim/time.h"

namespace ppsim::obs {

/// Per-ISP-pair byte matrix; [i][j] = bytes flowing from category i to
/// category j (same layout as core::TrafficMatrix::bytes).
using IspMatrix =
    std::array<std::array<std::uint64_t, net::kNumIspCategories>,
               net::kNumIspCategories>;

/// One periodic snapshot of the swarm, the unit of the Figure-6-style
/// time-series: how much of the traffic stayed inside an ISP during this
/// interval and cumulatively, how local the neighborhoods look, and how
/// well playback is doing.
struct TrafficSample {
  sim::Time t;
  IspMatrix bytes{};  // cumulative delivered payload bytes as of t

  std::uint64_t interval_bytes = 0;          // delivered since last sample
  std::uint64_t interval_same_isp_bytes = 0;

  double same_isp_share_cum = 0;       // intra-ISP share of all bytes so far
  double same_isp_share_interval = 0;  // intra-ISP share of this interval
  double neighbor_same_isp_share = 0;  // same-ISP share of neighbor links
  double avg_continuity = 0;           // mean playback continuity, viewers
  std::uint64_t alive_peers = 0;
};

std::uint64_t matrix_total(const IspMatrix& m);
std::uint64_t matrix_intra_isp(const IspMatrix& m);

/// Turns successive cumulative matrices into interval samples and keeps
/// the whole series. The caller (the experiment runner's schedule_periodic
/// tick) supplies the swarm snapshot; the sampler handles the deltas and
/// share arithmetic. A sample is 264 B, so the series costs about 95 KB per
/// simulated hour at the 10 s default period.
class TrafficSampler {
 public:
  const TrafficSample& record(sim::Time now, const IspMatrix& cumulative,
                              double neighbor_same_isp_share,
                              double avg_continuity,
                              std::uint64_t alive_peers);

  const std::vector<TrafficSample>& samples() const { return samples_; }

 private:
  IspMatrix prev_{};
  std::vector<TrafficSample> samples_;
};

/// One JSON object per sample per line, keys in a fixed order — byte-stable
/// for a given sample sequence (see docs/OBSERVABILITY.md).
void write_sample_ndjson(std::ostream& os, const TrafficSample& sample);
void write_samples_ndjson(std::ostream& os,
                          const std::vector<TrafficSample>& samples);

/// Parses rows written by write_samples_ndjson. Malformed lines are
/// skipped and counted in *dropped (when non-null). A duplicate timestamp —
/// two rows carrying the same t, and therefore the same (time, src_isp,
/// dst_isp) matrix cells — means the file was assembled wrong (e.g. two
/// runs' files concatenated); the whole file is rejected: the
/// reader returns an empty vector and describes the offending row in
/// *error (when non-null).
std::vector<TrafficSample> read_samples_ndjson(std::istream& is,
                                               std::size_t* dropped = nullptr,
                                               std::string* error = nullptr);

}  // namespace ppsim::obs
