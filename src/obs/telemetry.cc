#include "obs/telemetry.h"

#include <istream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace ppsim::obs {

std::vector<std::string> MetricsDeltaTracker::collect_impl(
    const MetricsRegistry& registry, bool full) {
  std::vector<std::string> rows;
  registry.for_each([&](const MetricsRegistry::EntryView& e) {
    std::ostringstream os;
    write_entry_ndjson(os, e);
    std::string row = os.str();
    if (!row.empty() && row.back() == '\n') row.pop_back();
    auto [it, inserted] = last_.emplace(e.key, row);
    if (!inserted) {
      if (!full && it->second == row) return;
      it->second = row;
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

std::vector<std::string> MetricsDeltaTracker::collect(
    const MetricsRegistry& registry) {
  return collect_impl(registry, /*full=*/false);
}

std::vector<std::string> MetricsDeltaTracker::collect_full(
    const MetricsRegistry& registry) {
  return collect_impl(registry, /*full=*/true);
}

bool parse_metric_ndjson(const std::string& line, ParsedMetric* out) {
  *out = ParsedMetric{};
  std::size_t pos = line.find("{\"metric\":");
  if (pos != 0) return false;
  pos += 10;
  if (!read_json_string_at(line, &pos, &out->name)) return false;

  const std::size_t type_pos = line.find(",\"type\":\"", pos);
  if (type_pos == std::string::npos) return false;
  std::size_t p = type_pos + 8;
  std::string type;
  if (!read_json_string_at(line, &p, &type)) return false;

  const std::size_t labels_pos = line.find(",\"labels\":{", p);
  if (labels_pos == std::string::npos) return false;
  p = labels_pos + 11;
  out->labels.clear();
  if (p < line.size() && line[p] != '}') {
    while (true) {
      std::string k, v;
      if (!read_json_string_at(line, &p, &k)) return false;
      if (p >= line.size() || line[p] != ':') return false;
      ++p;
      if (!read_json_string_at(line, &p, &v)) return false;
      out->labels.emplace_back(std::move(k), std::move(v));
      if (p < line.size() && line[p] == ',') {
        ++p;
        continue;
      }
      break;
    }
  }
  if (p >= line.size() || line[p] != '}') return false;
  ++p;

  if (type == "histogram") {
    out->kind = ParsedMetric::Kind::kSkipped;
    return true;
  }
  if (line.compare(p, 9, ",\"value\":") != 0) return false;
  // The row from its "value" key on, so no label key can shadow it.
  const std::string_view value = std::string_view(line).substr(p + 1);
  if (type == "counter") {
    out->kind = ParsedMetric::Kind::kCounter;
    return read_json_u64(value, "value", &out->counter_value);
  }
  if (type == "gauge") {
    out->kind = ParsedMetric::Kind::kGauge;
    return read_json_double(value, "value", &out->gauge_value);
  }
  return false;
}

bool apply_metric(const ParsedMetric& m, MetricsRegistry* registry) {
  switch (m.kind) {
    case ParsedMetric::Kind::kCounter:
      registry->counter(m.name, m.labels).raise_to(m.counter_value);
      return true;
    case ParsedMetric::Kind::kGauge:
      registry->gauge(m.name, m.labels).set(m.gauge_value);
      return true;
    case ParsedMetric::Kind::kSkipped:
      return false;
  }
  return false;
}

std::size_t read_metrics_ndjson(std::istream& is, MetricsRegistry* registry,
                                std::size_t* skipped) {
  std::size_t applied = 0;
  if (skipped != nullptr) *skipped = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ParsedMetric m;
    if (parse_metric_ndjson(line, &m) && apply_metric(m, registry)) {
      ++applied;
    } else if (skipped != nullptr) {
      ++*skipped;
    }
  }
  return applied;
}

}  // namespace ppsim::obs
