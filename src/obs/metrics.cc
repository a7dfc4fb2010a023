#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/json.h"

namespace ppsim::obs {

namespace {

Labels sorted_labels(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

/// Serialized identity: name{k="v",...} with labels already sorted.
std::string identity_key(std::string_view name, const Labels& sorted) {
  std::string key(name);
  if (sorted.empty()) return key;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += "=\"";
    key += sorted[i].second;
    key += '"';
  }
  key += '}';
  return key;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1, 0) {
  assert(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
}

void Histogram::observe(double v) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - upper_bounds_.begin())];
  ++count_;
  sum_ += v;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the wanted observation, 1-based. ceil() so that e.g. the median
  // of two observations is the first (rank 1), matching the "tightest upper
  // bound" contract; q=0 still lands on rank 1, q=1 on rank count.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      return i < upper_bounds_.size()
                 ? upper_bounds_[i]
                 : std::numeric_limits<double>::infinity();
    }
  }
  return std::numeric_limits<double>::infinity();
}

void Histogram::merge(const Histogram& other) {
  assert(upper_bounds_ == other.upper_bounds_ &&
         "histogram merge requires identical bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               const Labels& labels,
                                               Kind kind) {
  Labels sorted = sorted_labels(labels);
  std::string key = identity_key(name, sorted);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    assert(it->second.kind == kind && "metric re-registered as another type");
    return it->second;
  }
  Entry e;
  e.name = std::string(name);
  e.labels = std::move(sorted);
  e.kind = kind;
  return entries_.emplace(std::move(key), std::move(e)).first->second;
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    const Labels& labels,
                                                    Kind kind) const {
  const auto it = entries_.find(identity_key(name, sorted_labels(labels)));
  if (it == entries_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  Entry& e = entry(name, labels, Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  Entry& e = entry(name, labels, Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      const Labels& labels) {
  Entry& e = entry(name, labels, Kind::kHistogram);
  if (!e.histogram)
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  return *e.histogram;
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             const Labels& labels) const {
  const Entry* e = find(name, labels, Kind::kCounter);
  return e == nullptr ? nullptr : e->counter.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name,
                                         const Labels& labels) const {
  const Entry* e = find(name, labels, Kind::kGauge);
  return e == nullptr ? nullptr : e->gauge.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name,
                                                 const Labels& labels) const {
  const Entry* e = find(name, labels, Kind::kHistogram);
  return e == nullptr ? nullptr : e->histogram.get();
}

void MetricsRegistry::for_each(
    const std::function<void(const EntryView&)>& fn) const {
  for (const auto& [key, e] : entries_) {
    EntryView view{key, e.name, e.labels,
                   e.kind == Kind::kCounter ? e.counter.get() : nullptr,
                   e.kind == Kind::kGauge ? e.gauge.get() : nullptr,
                   e.kind == Kind::kHistogram ? e.histogram.get() : nullptr};
    fn(view);
  }
}

void MetricsRegistry::write_ndjson(std::ostream& os) const {
  for_each([&os](const EntryView& e) { write_entry_ndjson(os, e); });
}

void write_entry_ndjson(std::ostream& os,
                        const MetricsRegistry::EntryView& e) {
  os << "{\"metric\":";
  write_json_string(os, e.name);
  os << ",\"type\":";
  if (e.counter != nullptr)
    os << "\"counter\"";
  else if (e.gauge != nullptr)
    os << "\"gauge\"";
  else
    os << "\"histogram\"";
  os << ",\"labels\":{";
  for (std::size_t i = 0; i < e.labels.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, e.labels[i].first);
    os << ':';
    write_json_string(os, e.labels[i].second);
  }
  os << '}';
  if (e.counter != nullptr) {
    os << ",\"value\":" << e.counter->value();
  } else if (e.gauge != nullptr) {
    os << ",\"value\":";
    write_json_double(os, e.gauge->value());
  } else {
    const Histogram& h = *e.histogram;
    os << ",\"count\":" << h.count() << ",\"sum\":";
    write_json_double(os, h.sum());
    os << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
      if (i > 0) os << ',';
      os << "{\"le\":";
      if (i < h.upper_bounds().size())
        write_json_double(os, h.upper_bounds()[i]);
      else
        os << "\"+inf\"";
      os << ",\"count\":" << h.bucket_counts()[i] << '}';
    }
    os << ']';
  }
  os << "}\n";
}

}  // namespace ppsim::obs
