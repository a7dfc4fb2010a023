#include "faults/plan.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/directive.h"

namespace ppsim::faults {

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kTrackerOutage: return "tracker_outage";
    case FaultKind::kBootstrapOutage: return "bootstrap_outage";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kChurnBurst: return "churn_burst";
    case FaultKind::kUplinkBrownout: return "uplink_brownout";
  }
  return "unknown";
}

bool parse_fault_kind(std::string_view s, FaultKind* out) {
  for (FaultKind k :
       {FaultKind::kTrackerOutage, FaultKind::kBootstrapOutage,
        FaultKind::kLinkDegrade, FaultKind::kBlackout, FaultKind::kChurnBurst,
        FaultKind::kUplinkBrownout}) {
    if (s == to_string(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool parse_isp_category(std::string_view s, net::IspCategory* out) {
  for (net::IspCategory c : net::kAllIspCategories) {
    if (s == net::to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

PlanParseResult parse_fault_plan(std::istream& in) {
  PlanParseResult result;
  FaultWindow w;
  bool have_kind = false, have_start = false, have_end = false;
  const auto on_pair = [&](std::string_view key,
                           std::string_view value) -> std::string {
    if (key == "kind") {
      if (!parse_fault_kind(value, &w.kind))
        return "unknown kind '" + std::string(value) + "'";
      have_kind = true;
    } else if (key == "start") {
      if (!obs::parse_directive_duration(value, &w.start)) return "bad start";
      have_start = true;
    } else if (key == "end") {
      if (!obs::parse_directive_duration(value, &w.end)) return "bad end";
      have_end = true;
    } else if (key == "at") {
      // Instantaneous window: start == end.
      if (!obs::parse_directive_duration(value, &w.start)) return "bad at";
      w.end = w.start;
      have_start = have_end = true;
    } else if (key == "group") {
      if (!obs::parse_directive_int(value, &w.tracker_group))
        return "bad group";
    } else if (key == "a" || key == "b") {
      if (!parse_isp_category(value, key == "a" ? &w.category_a
                                                : &w.category_b))
        return "unknown category '" + std::string(value) + "'";
    } else if (key == "loss") {
      if (!obs::parse_directive_double(value, &w.loss)) return "bad loss";
    } else if (key == "added_rtt_ms") {
      if (!obs::parse_directive_duration(value, &w.added_rtt, 1000))
        return "bad added_rtt_ms";
    } else if (key == "fraction") {
      if (!obs::parse_directive_double(value, &w.fraction))
        return "bad fraction";
    } else if (key == "label") {
      w.label = std::string(value);
    } else {
      return "unknown key '" + std::string(key) + "'";
    }
    return {};
  };
  const auto on_line_end = [&]() -> std::string {
    if (!have_kind) return "missing kind=";
    if (!have_start) return "missing start= (or at=)";
    if (!have_end && w.kind != FaultKind::kChurnBurst) return "missing end=";
    if (!have_end) w.end = w.start;
    result.plan.windows.push_back(std::exchange(w, FaultWindow{}));
    have_kind = have_start = have_end = false;
    return {};
  };
  result.error =
      obs::read_directives(in, "fault plan", "window", on_pair, on_line_end);
  // Time-ordered schedule: sort by (start, end) and keep the textual order
  // for ties, so the driver applies windows in a well-defined sequence.
  std::stable_sort(result.plan.windows.begin(), result.plan.windows.end(),
                   [](const FaultWindow& a, const FaultWindow& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.end < b.end;
                   });
  if (result.error.empty()) result.error = validate(result.plan);
  if (!result.error.empty()) result.plan.windows.clear();
  return result;
}

PlanParseResult load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    PlanParseResult result;
    result.error = "cannot open fault plan '" + path + "'";
    return result;
  }
  return parse_fault_plan(in);
}

std::string validate(const FaultPlan& plan) {
  for (std::size_t i = 0; i < plan.windows.size(); ++i) {
    const FaultWindow& w = plan.windows[i];
    std::ostringstream os;
    os << "window " << i << " (" << to_string(w.kind) << "): ";
    if (w.end < w.start) {
      os << "end before start";
      return os.str();
    }
    switch (w.kind) {
      case FaultKind::kTrackerOutage:
        if (w.tracker_group < -1) {
          os << "group must be >= 0 (or -1 for all)";
          return os.str();
        }
        break;
      case FaultKind::kBootstrapOutage:
        break;
      case FaultKind::kLinkDegrade:
        if (w.loss < 0 || w.loss > 1) {
          os << "loss must be in [0,1]";
          return os.str();
        }
        if (w.loss == 0 && w.added_rtt == sim::Time::zero()) {
          os << "needs loss and/or added_rtt_ms";
          return os.str();
        }
        break;
      case FaultKind::kBlackout:
        break;
      case FaultKind::kChurnBurst:
        if (w.fraction <= 0 || w.fraction > 1) {
          os << "fraction must be in (0,1]";
          return os.str();
        }
        if (w.end != w.start) {
          os << "churn bursts are instantaneous (use at=)";
          return os.str();
        }
        break;
      case FaultKind::kUplinkBrownout:
        if (w.fraction <= 0 || w.fraction > 1) {
          os << "fraction must be in (0,1]";
          return os.str();
        }
        if (w.loss <= 0 || w.loss > 1) {
          os << "loss must be in (0,1]";
          return os.str();
        }
        break;
    }
  }
  return {};
}

void write_fault_plan(std::ostream& os, const FaultPlan& plan) {
  char buf[64];
  const auto secs = [&](sim::Time t) {
    std::snprintf(buf, sizeof(buf), "%.6g", t.as_seconds());
    return std::string(buf);
  };
  os << "# ppsim fault plan (docs/FAULTS.md)\n";
  for (const FaultWindow& w : plan.windows) {
    os << "window kind=" << to_string(w.kind);
    if (w.kind == FaultKind::kChurnBurst) {
      os << " at=" << secs(w.start);
    } else {
      os << " start=" << secs(w.start) << " end=" << secs(w.end);
    }
    switch (w.kind) {
      case FaultKind::kTrackerOutage:
        os << " group=" << w.tracker_group;
        break;
      case FaultKind::kBootstrapOutage:
        break;
      case FaultKind::kLinkDegrade:
        os << " a=" << net::to_string(w.category_a)
           << " b=" << net::to_string(w.category_b);
        if (w.loss > 0) os << " loss=" << w.loss;
        if (w.added_rtt != sim::Time::zero()) {
          std::snprintf(buf, sizeof(buf), "%.6g",
                        w.added_rtt.as_seconds() * 1000.0);
          os << " added_rtt_ms=" << buf;
        }
        break;
      case FaultKind::kBlackout:
        os << " a=" << net::to_string(w.category_a);
        break;
      case FaultKind::kChurnBurst:
        os << " fraction=" << w.fraction;
        break;
      case FaultKind::kUplinkBrownout:
        os << " fraction=" << w.fraction << " loss=" << w.loss;
        break;
    }
    if (!w.label.empty()) os << " label=" << w.label;
    os << "\n";
  }
}

FaultPlan tracker_blackout_throttle_plan() {
  FaultPlan plan;
  {
    FaultWindow w;
    w.kind = FaultKind::kTrackerOutage;
    w.start = sim::Time::seconds(60);
    w.end = sim::Time::seconds(150);
    w.tracker_group = -1;
    w.label = "all-trackers-dark";
    plan.windows.push_back(w);
  }
  {
    FaultWindow w;
    w.kind = FaultKind::kLinkDegrade;
    w.start = sim::Time::seconds(75);
    w.end = sim::Time::seconds(150);
    w.category_a = net::IspCategory::kTele;
    w.category_b = net::IspCategory::kCnc;
    w.loss = 0.3;
    w.added_rtt = sim::Time::millis(150);
    w.label = "tele-cnc-throttle";
    plan.windows.push_back(w);
  }
  {
    FaultWindow w;
    w.kind = FaultKind::kChurnBurst;
    w.start = w.end = sim::Time::seconds(105);
    w.fraction = 0.2;
    w.label = "crash-burst";
    plan.windows.push_back(w);
  }
  return plan;
}

}  // namespace ppsim::faults
