#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ppsim::obs {

/// Snapshot/delta export of a MetricsRegistry, the node side of the fleet
/// telemetry plane (docs/OBSERVABILITY.md, "Fleet telemetry").
///
/// The unit shipped is the *serialized row* — the exact bytes
/// write_entry_ndjson emits. A tracker remembers the last row shipped per
/// identity and collects only the rows whose bytes changed, so a periodic
/// snapshot costs O(changed instances), and a full collect (the closing
/// snapshot of a graceful shutdown) re-ships everything. Because rows
/// carry cumulative values, a lost delta datagram is self-healing: the
/// next snapshot that touches the instance converges the receiver.
class MetricsDeltaTracker {
 public:
  /// Rows (write_entry_ndjson lines, trailing newline stripped) whose
  /// bytes changed since the previous collect/collect_full call, in
  /// identity order. Updates the tracking state.
  std::vector<std::string> collect(const MetricsRegistry& registry);

  /// Every row, unconditionally; still updates the tracking state.
  std::vector<std::string> collect_full(const MetricsRegistry& registry);

 private:
  std::vector<std::string> collect_impl(const MetricsRegistry& registry,
                                        bool full);
  std::map<std::string, std::string> last_;  // identity key -> last row
};

/// One metrics-NDJSON row, parsed back. Histogram rows are recognized but
/// not decoded (kSkipped): the telemetry plane folds counters and gauges;
/// wire nodes publish no histograms and the collector counts any skipped
/// row it receives.
struct ParsedMetric {
  enum class Kind { kCounter, kGauge, kSkipped };
  Kind kind = Kind::kSkipped;
  std::string name;
  Labels labels;                    // as listed (writer emits them sorted)
  std::uint64_t counter_value = 0;  // kCounter
  double gauge_value = 0;           // kGauge
};

/// Parses a row written by write_entry_ndjson / write_ndjson. Returns
/// false when the line is not a metric row at all; histogram rows return
/// true with kind == kSkipped. Tolerant scanning parser for our own fixed
/// emission format, like read_samples_ndjson — not general JSON.
bool parse_metric_ndjson(const std::string& line, ParsedMetric* out);

/// Applies one parsed row to `registry`: counters converge on the row's
/// cumulative value (Counter::raise_to, so replayed or reordered snapshots
/// can only raise a counter, never rewind it), gauges last-write-wins.
/// Returns false for kSkipped rows. The value round-trips byte-stably:
/// re-serializing an applied row reproduces the input bytes ("%.9g" is
/// strtod-stable), which is what makes collector-side aggregates
/// byte-comparable to the per-node sink files.
bool apply_metric(const ParsedMetric& m, MetricsRegistry* registry);

/// Reads a whole metrics-NDJSON stream into `registry` via apply_metric.
/// Returns rows applied; malformed and histogram rows count into *skipped
/// (when non-null).
std::size_t read_metrics_ndjson(std::istream& is, MetricsRegistry* registry,
                                std::size_t* skipped = nullptr);

}  // namespace ppsim::obs
