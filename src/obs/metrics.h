#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppsim::obs {

/// Metric labels: key/value pairs that distinguish instances of the same
/// metric name (e.g. bytes_uploaded{src_isp="TELE",dst_isp="CNC"}). Sorted
/// by key at registration so the instance identity — and every dump — is
/// independent of the order the caller listed them in.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  /// Converges the counter on a cumulative count kept elsewhere. A lower
  /// `total` leaves it as it is: a counter never rewinds.
  void raise_to(std::uint64_t total) {
    if (total > value_) value_ = total;
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram. Bucket bounds are upper edges (inclusive),
/// strictly increasing; one implicit overflow bucket catches everything
/// above the last bound. Counts are per-bucket, not cumulative.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// size() == upper_bounds().size() + 1; last entry is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Upper bound of the bucket holding the q-quantile observation (q
  /// clamped to [0,1]; rank = max(1, ceil(q * count)) so q=0 is the first
  /// observation and q=1 the last). A histogram only knows buckets, so this
  /// is the tightest upper bound, not an interpolated value: an observation
  /// landing exactly on a bucket bound reports that bound. Returns NaN when
  /// empty and +infinity when the rank falls in the overflow bucket.
  double quantile(double q) const;

  /// Fold another histogram into this one. Both must have identical bucket
  /// bounds (asserted). Bucket counts and the observation count add as
  /// integers; the sums add as `this += other`, so merging a sequence of
  /// histograms is a left fold in caller order — callers that need the
  /// merged sum byte-stable must merge in a fixed order, as the fleet
  /// collector does (node address order).
  void merge(const Histogram& other);

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Registry of named, labelled metric instances.
///
/// counter()/gauge()/histogram() register on first use and return the same
/// instance on every later call with the same (name, labels); references
/// stay valid for the registry's lifetime, so hot paths resolve once and
/// then touch a plain integer. Registering the same identity under two
/// different types is a programming error (asserted).
///
/// The registry is storage only: it never samples anything by itself, and
/// an unused registry costs nothing — exactly what "sinks default off"
/// requires of the experiment wiring.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds,
                       const Labels& labels = {});

  const Counter* find_counter(std::string_view name,
                              const Labels& labels = {}) const;
  const Gauge* find_gauge(std::string_view name,
                          const Labels& labels = {}) const;
  const Histogram* find_histogram(std::string_view name,
                                  const Labels& labels = {}) const;

  std::size_t size() const { return entries_.size(); }

  /// Read-only view of one registered instance. Exactly one of the three
  /// pointers is non-null. `key` is the serialized identity
  /// name{k="v",...} the registry sorts by — stable across processes, so
  /// it doubles as the change-tracking key of the telemetry delta encoder.
  struct EntryView {
    const std::string& key;
    const std::string& name;
    const Labels& labels;  // sorted by key
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// Visits every instance in lexicographic identity order — the exact
  /// order write_ndjson emits rows in.
  void for_each(const std::function<void(const EntryView&)>& fn) const;

  /// One JSON object per line, instances in lexicographic identity order,
  /// keys in a fixed order — byte-stable for a given registry state. See
  /// docs/OBSERVABILITY.md for the schema.
  void write_ndjson(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;  // sorted by key
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, const Labels& labels, Kind kind);
  const Entry* find(std::string_view name, const Labels& labels,
                    Kind kind) const;

  // Keyed by the serialized identity name{k="v",...}; std::map so dumps
  // come out in a deterministic order.
  std::map<std::string, Entry> entries_;
};

/// Writes the one-line NDJSON row for a single instance — byte-identical
/// to the row write_ndjson emits for it (trailing newline included). The
/// telemetry delta encoder ships these rows verbatim, which is what makes
/// a collector-side fold byte-comparable to the node's own sink file.
void write_entry_ndjson(std::ostream& os,
                        const MetricsRegistry::EntryView& e);

}  // namespace ppsim::obs
