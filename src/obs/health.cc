#include "obs/health.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/directive.h"
#include "obs/json.h"

namespace ppsim::obs {

std::string_view to_string(HealthRuleKind k) {
  switch (k) {
    case HealthRuleKind::kContinuityFloor: return "continuity_floor";
    case HealthRuleKind::kPeerIsolation: return "peer_isolation";
    case HealthRuleKind::kIspShareDrift: return "isp_share_drift";
    case HealthRuleKind::kStartupDelaySlo: return "startup_delay_slo";
    case HealthRuleKind::kQueueDepthCeiling: return "queue_depth_ceiling";
  }
  return "unknown";
}

bool parse_health_rule_kind(std::string_view s, HealthRuleKind* out) {
  for (HealthRuleKind k :
       {HealthRuleKind::kContinuityFloor, HealthRuleKind::kPeerIsolation,
        HealthRuleKind::kIspShareDrift, HealthRuleKind::kStartupDelaySlo,
        HealthRuleKind::kQueueDepthCeiling}) {
    if (s == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool is_floor(HealthRuleKind k) {
  return k == HealthRuleKind::kContinuityFloor;
}

std::string HealthRule::display_name() const {
  return label.empty() ? std::string(to_string(kind)) : label;
}

std::string_view to_string(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "ok";
    case HealthState::kWarn: return "warn";
    case HealthState::kCritical: return "critical";
  }
  return "unknown";
}

HealthRulesParseResult parse_health_rules(std::istream& in) {
  HealthRulesParseResult result;
  HealthRule r;
  bool have_kind = false, have_warn = false, have_critical = false;
  const auto on_pair = [&](std::string_view key,
                           std::string_view value) -> std::string {
    if (key == "kind") {
      if (!parse_health_rule_kind(value, &r.kind))
        return "unknown kind '" + std::string(value) + "'";
      have_kind = true;
    } else if (key == "warn") {
      if (!parse_directive_double(value, &r.warn)) return "bad warn";
      have_warn = true;
    } else if (key == "critical") {
      if (!parse_directive_double(value, &r.critical)) return "bad critical";
      have_critical = true;
    } else if (key == "after") {
      if (!parse_directive_duration(value, &r.after)) return "bad after";
    } else if (key == "trailing") {
      if (!parse_directive_int(value, &r.trailing)) return "bad trailing";
    } else if (key == "slo_s") {
      if (!parse_directive_double(value, &r.slo_s)) return "bad slo_s";
    } else if (key == "label") {
      r.label = std::string(value);
    } else {
      return "unknown key '" + std::string(key) + "'";
    }
    return {};
  };
  const auto on_line_end = [&]() -> std::string {
    if (!have_kind) return "missing kind=";
    if (!have_warn) return "missing warn=";
    if (!have_critical) return "missing critical=";
    result.rules.rules.push_back(std::exchange(r, HealthRule{}));
    have_kind = have_warn = have_critical = false;
    return {};
  };
  result.error =
      read_directives(in, "health rules", "rule", on_pair, on_line_end);
  if (result.error.empty()) result.error = validate(result.rules);
  if (!result.error.empty()) result.rules.rules.clear();
  return result;
}

HealthRulesParseResult load_health_rules(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    HealthRulesParseResult result;
    result.error = "cannot open health rules '" + path + "'";
    return result;
  }
  return parse_health_rules(in);
}

std::string validate(const HealthRuleSet& rules) {
  for (std::size_t i = 0; i < rules.rules.size(); ++i) {
    const HealthRule& r = rules.rules[i];
    std::ostringstream os;
    os << "rule " << i << " (" << to_string(r.kind) << "): ";
    if (is_floor(r.kind)) {
      if (r.critical > r.warn) {
        os << "critical must be <= warn for a floor";
        return os.str();
      }
    } else {
      if (r.critical < r.warn) {
        os << "critical must be >= warn for a ceiling";
        return os.str();
      }
    }
    switch (r.kind) {
      case HealthRuleKind::kContinuityFloor:
        if (r.warn < 0 || r.warn > 1 || r.critical < 0) {
          os << "thresholds must be in [0,1]";
          return os.str();
        }
        break;
      case HealthRuleKind::kIspShareDrift:
        if (r.warn < 0 || r.critical > 1) {
          os << "drift thresholds must be in [0,1]";
          return os.str();
        }
        if (r.trailing < 2) {
          os << "trailing must be >= 2 samples";
          return os.str();
        }
        break;
      case HealthRuleKind::kStartupDelaySlo:
        if (r.slo_s <= 0) {
          os << "slo_s must be > 0";
          return os.str();
        }
        [[fallthrough]];
      case HealthRuleKind::kPeerIsolation:
      case HealthRuleKind::kQueueDepthCeiling:
        if (r.warn < 0) {
          os << "count thresholds must be >= 0";
          return os.str();
        }
        break;
    }
  }
  return {};
}

void write_health_rules(std::ostream& os, const HealthRuleSet& rules) {
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  os << "# ppsim health rules (docs/OBSERVABILITY.md)\n";
  for (const HealthRule& r : rules.rules) {
    os << "rule kind=" << to_string(r.kind) << " warn=" << num(r.warn)
       << " critical=" << num(r.critical);
    if (r.after != sim::Time::zero())
      os << " after=" << num(r.after.as_seconds());
    if (r.kind == HealthRuleKind::kIspShareDrift)
      os << " trailing=" << r.trailing;
    if (r.kind == HealthRuleKind::kStartupDelaySlo)
      os << " slo_s=" << num(r.slo_s);
    if (!r.label.empty()) os << " label=" << r.label;
    os << "\n";
  }
}

HealthRuleSet default_health_rules() {
  HealthRuleSet rules;
  {
    HealthRule r;
    r.kind = HealthRuleKind::kContinuityFloor;
    r.warn = 0.90;
    r.critical = 0.75;
    r.after = sim::Time::seconds(45);
    r.label = "continuity";
    rules.rules.push_back(r);
  }
  {
    HealthRule r;
    r.kind = HealthRuleKind::kPeerIsolation;
    r.warn = 3;
    r.critical = 8;
    r.after = sim::Time::seconds(30);
    r.label = "isolation";
    rules.rules.push_back(r);
  }
  {
    HealthRule r;
    r.kind = HealthRuleKind::kIspShareDrift;
    r.warn = 0.35;
    r.critical = 0.60;
    r.after = sim::Time::seconds(45);
    r.trailing = 4;
    r.label = "locality-drift";
    rules.rules.push_back(r);
  }
  {
    HealthRule r;
    r.kind = HealthRuleKind::kStartupDelaySlo;
    r.warn = 3;
    r.critical = 10;
    r.after = sim::Time::seconds(45);
    r.slo_s = 30;
    r.label = "startup-slo";
    rules.rules.push_back(r);
  }
  {
    HealthRule r;
    r.kind = HealthRuleKind::kQueueDepthCeiling;
    r.warn = 20000;
    r.critical = 50000;
    r.label = "scheduler-backlog";
    rules.rules.push_back(r);
  }
  return rules;
}

HealthMonitor::HealthMonitor(HealthRuleSet rules, TraceSink* trace)
    : rules_(std::move(rules)), trace_(trace) {
  states_.resize(rules_.rules.size());
}

bool HealthMonitor::signal(std::size_t i, const HealthInput& input,
                           double* value) {
  const HealthRule& rule = rules_.rules[i];
  RuleState& state = states_[i];
  if (input.t < rule.after) return false;
  switch (rule.kind) {
    case HealthRuleKind::kContinuityFloor:
      *value = input.avg_continuity;
      return true;
    case HealthRuleKind::kPeerIsolation:
      *value = static_cast<double>(input.isolated_peers);
      return true;
    case HealthRuleKind::kIspShareDrift: {
      // Drift = relative drop of the current interval share below its
      // trailing-window mean; idle intervals carry no share information.
      if (input.interval_bytes == 0) return false;
      const double share = input.same_isp_share_interval;
      bool have = false;
      if (state.trailing.size() >= static_cast<std::size_t>(rule.trailing)) {
        double sum = 0;
        for (const double s : state.trailing) sum += s;
        const double mean = sum / static_cast<double>(state.trailing.size());
        if (mean > 0) {
          *value = std::max(0.0, (mean - share) / mean);
          have = true;
        }
      }
      state.trailing.push_back(share);
      while (state.trailing.size() > static_cast<std::size_t>(rule.trailing))
        state.trailing.pop_front();
      return have;
    }
    case HealthRuleKind::kStartupDelaySlo: {
      std::uint64_t late = 0;
      for (const double w : input.startup_waits_s)
        if (w > rule.slo_s) ++late;
      *value = static_cast<double>(late);
      return true;
    }
    case HealthRuleKind::kQueueDepthCeiling:
      *value = static_cast<double>(input.queue_depth);
      return true;
  }
  return false;
}

void HealthMonitor::evaluate(const HealthInput& input) {
  for (std::size_t i = 0; i < rules_.rules.size(); ++i) {
    const HealthRule& rule = rules_.rules[i];
    RuleState& state = states_[i];
    double value = 0;
    if (!signal(i, input, &value)) continue;
    ++state.status.evaluations;
    state.status.last_value = value;
    HealthState target = HealthState::kOk;
    if (is_floor(rule.kind)) {
      if (value < rule.critical) target = HealthState::kCritical;
      else if (value < rule.warn) target = HealthState::kWarn;
    } else {
      if (value >= rule.critical) target = HealthState::kCritical;
      else if (value >= rule.warn) target = HealthState::kWarn;
    }
    if (target != state.status.state) transition(i, input.t, target, value);
    if (target != HealthState::kOk && state.status.trips > 0) {
      // "More extreme" depends on direction: deeper for floors, higher
      // for ceilings. transition() seeded worst_value on the first trip.
      const bool more_extreme = is_floor(rule.kind)
                                    ? value < state.status.worst_value
                                    : value > state.status.worst_value;
      if (more_extreme) state.status.worst_value = value;
    }
  }
}

void HealthMonitor::transition(std::size_t i, sim::Time t, HealthState to,
                               double value) {
  const HealthRule& rule = rules_.rules[i];
  RuleState& state = states_[i];
  const HealthState from = state.status.state;
  state.status.state = to;
  state.status.worst = std::max(state.status.worst, to);
  const char* event = nullptr;
  if (to == HealthState::kOk) {
    ++state.status.clears;
    event = "health.clear";
  } else {
    if (from == HealthState::kOk) {
      if (state.status.trips == 0) {
        state.status.first_trip = t;
        state.status.worst_value = value;
      }
      ++state.status.trips;
    }
    if (to == HealthState::kCritical) {
      ++state.status.criticals;
      event = "health.critical";
    } else {
      ++state.status.warns;
      event = "health.warn";
    }
  }
  emit(i, t, event, from, to, value);
  if (to == HealthState::kCritical && critical_hook_)
    critical_hook_(t, rule, value);
}

void HealthMonitor::emit(std::size_t i, sim::Time t, const char* event,
                         HealthState from, HealthState to, double value) {
  if (trace_ == nullptr) return;
  const HealthRule& rule = rules_.rules[i];
  TraceEvent e(t, event);
  e.field("rule", static_cast<std::uint64_t>(i))
      .field("kind", to_string(rule.kind))
      .field("label", rule.display_name())
      .field("from", to_string(from))
      .field("to", to_string(to))
      .field("value", value)
      .field("warn", rule.warn)
      .field("critical", rule.critical);
  trace_->write(e);
}

void HealthMonitor::export_metrics(MetricsRegistry& registry) const {
  static constexpr const char* kNames[] = {"health_trips", "health_warns",
                                           "health_criticals", "health_clears"};
  std::map<std::string, std::array<std::uint64_t, 4>> by_label;
  for (std::size_t i = 0; i < rules_.rules.size(); ++i) {
    const HealthRuleStatus& s = states_[i].status;
    const std::uint64_t counts[] = {s.trips, s.warns, s.criticals, s.clears};
    auto& sum = by_label[rules_.rules[i].display_name()];
    for (std::size_t k = 0; k < sum.size(); ++k) sum[k] += counts[k];
  }
  for (const auto& [label, sum] : by_label)
    for (std::size_t k = 0; k < sum.size(); ++k)
      if (sum[k] > 0)
        registry.counter(kNames[k], {{"rule", label}}).raise_to(sum[k]);
}

HealthSummary HealthMonitor::summary() const {
  HealthSummary s;
  s.rules.reserve(rules_.rules.size());
  for (std::size_t i = 0; i < rules_.rules.size(); ++i) {
    s.worst = std::max(s.worst, states_[i].status.worst);
    s.rules.emplace_back(rules_.rules[i], states_[i].status);
  }
  return s;
}

namespace {

bool parse_state(const std::string& s, HealthState* out) {
  for (HealthState st :
       {HealthState::kOk, HealthState::kWarn, HealthState::kCritical}) {
    if (s == to_string(st)) {
      *out = st;
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<HealthTransition> read_health_events_ndjson(std::istream& is,
                                                        std::size_t* dropped) {
  std::vector<HealthTransition> out;
  if (dropped != nullptr) *dropped = 0;
  std::string line;
  while (std::getline(is, line)) {
    std::string ev;
    if (!read_json_string(line, "ev", &ev)) continue;
    if (ev != "health.warn" && ev != "health.critical" && ev != "health.clear")
      continue;
    HealthTransition tr;
    std::uint64_t rule = 0;
    std::string kind, from, to;
    const bool ok = read_json_sim_time(line, "t", &tr.t) &&
                    read_json_u64(line, "rule", &rule) &&
                    read_json_string(line, "kind", &kind) &&
                    parse_health_rule_kind(kind, &tr.kind) &&
                    read_json_string(line, "label", &tr.label) &&
                    read_json_string(line, "from", &from) &&
                    parse_state(from, &tr.from) &&
                    read_json_string(line, "to", &to) &&
                    parse_state(to, &tr.to) &&
                    read_json_double(line, "value", &tr.value);
    if (!ok) {
      if (dropped != nullptr) ++*dropped;
      continue;
    }
    tr.rule = static_cast<std::size_t>(rule);
    out.push_back(std::move(tr));
  }
  return out;
}

std::vector<HealthRuleTimeline> analyze_health_timeline(
    const std::vector<HealthTransition>& transitions) {
  std::vector<HealthRuleTimeline> rows;
  const auto row_for = [&](const HealthTransition& tr) -> HealthRuleTimeline& {
    for (auto& r : rows)
      if (r.rule == tr.rule) return r;
    HealthRuleTimeline r;
    r.rule = tr.rule;
    r.kind = tr.kind;
    r.label = tr.label;
    rows.push_back(std::move(r));
    return rows.back();
  };
  for (const HealthTransition& tr : transitions) {
    HealthRuleTimeline& row = row_for(tr);
    if (tr.to == HealthState::kOk) {
      ++row.clears;
      row.last_clear = tr.t;
    } else {
      if (tr.from == HealthState::kOk) {
        if (row.trips == 0) row.first_trip = tr.t;
        ++row.trips;
      }
      if (tr.to == HealthState::kCritical) ++row.criticals;
      const bool more_extreme =
          !row.has_worst || (is_floor(tr.kind) ? tr.value < row.worst_value
                                               : tr.value > row.worst_value);
      if (more_extreme) {
        row.worst_value = tr.value;
        row.has_worst = true;
      }
    }
    row.final_state = tr.to;
  }
  std::sort(rows.begin(), rows.end(),
            [](const HealthRuleTimeline& a, const HealthRuleTimeline& b) {
              return a.rule < b.rule;
            });
  return rows;
}

void print_health_timeline(std::ostream& os,
                           const std::vector<HealthRuleTimeline>& rows) {
  os << "Health timeline (watchdog trips & clears per rule)\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "%4s  %-20s %-20s %6s %6s %6s  %11s %11s  %8s  %s\n", "rule",
                "kind", "label", "trips", "crit", "clear", "first-trip",
                "last-clear", "worst", "final");
  os << line;
  for (const HealthRuleTimeline& r : rows) {
    char first[24], last[24], worst[24];
    if (r.trips > 0)
      std::snprintf(first, sizeof(first), "%.0fs", r.first_trip.as_seconds());
    else
      std::snprintf(first, sizeof(first), "%s", "-");
    if (r.clears > 0)
      std::snprintf(last, sizeof(last), "%.0fs", r.last_clear.as_seconds());
    else
      std::snprintf(last, sizeof(last), "%s", "-");
    if (r.has_worst)
      std::snprintf(worst, sizeof(worst), "%.3g", r.worst_value);
    else
      std::snprintf(worst, sizeof(worst), "%s", "-");
    std::snprintf(line, sizeof(line),
                  "%4zu  %-20s %-20s %6llu %6llu %6llu  %11s %11s  %8s  %s\n",
                  r.rule, std::string(to_string(r.kind)).c_str(),
                  r.label.empty() ? "-" : r.label.c_str(),
                  static_cast<unsigned long long>(r.trips),
                  static_cast<unsigned long long>(r.criticals),
                  static_cast<unsigned long long>(r.clears), first, last,
                  worst, std::string(to_string(r.final_state)).c_str());
    os << line;
  }
}

}  // namespace ppsim::obs
