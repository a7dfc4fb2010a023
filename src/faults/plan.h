#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "net/isp.h"
#include "sim/time.h"

namespace ppsim::faults {

/// The impairment families a fault plan can schedule. Each maps onto one
/// injection seam: tracker/bootstrap outages flip the servers' dark bit
/// (proto), link degradation / blackouts / brownouts mutate the network's
/// ImpairmentOverlay (net), churn bursts crash a fraction of the audience
/// through the experiment runner (core).
enum class FaultKind : std::uint8_t {
  kTrackerOutage = 0,    // a tracker group (or all) stops answering
  kBootstrapOutage = 1,  // the bootstrap/channel server goes dark
  kLinkDegrade = 2,      // cross-ISP link: extra loss + added RTT
  kBlackout = 3,         // an entire ISP category drops off the network
  kChurnBurst = 4,       // instantaneous correlated crash of a peer fraction
  kUplinkBrownout = 5,   // a fraction of peers' uplinks turn lossy
};

std::string_view to_string(FaultKind k);
/// Accepts the plan-file spelling ("tracker_outage", "link_degrade", ...).
bool parse_fault_kind(std::string_view s, FaultKind* out);
/// Accepts the reporting spelling used everywhere else ("TELE", "CNC", ...).
bool parse_isp_category(std::string_view s, net::IspCategory* out);

/// One scheduled impairment window on the simulator clock. Fields beyond
/// kind/start/end are kind-specific; unused ones keep their defaults.
struct FaultWindow {
  FaultKind kind = FaultKind::kTrackerOutage;
  sim::Time start;  // window opens (impairment applied)
  sim::Time end;    // window closes (impairment reverted); == start for
                    // instantaneous kinds (churn bursts)

  /// kTrackerOutage: tracker group index, or -1 for every group.
  int tracker_group = -1;
  /// kLinkDegrade: the two endpoint categories. kBlackout: category_a.
  net::IspCategory category_a = net::IspCategory::kTele;
  net::IspCategory category_b = net::IspCategory::kCnc;
  /// kLinkDegrade: extra drop probability. kUplinkBrownout: uplink loss.
  double loss = 0.0;
  /// kLinkDegrade: added round-trip time (applied half per direction).
  sim::Time added_rtt;
  /// kChurnBurst: fraction of alive audience peers crashed.
  /// kUplinkBrownout: fraction of alive audience peers browned out.
  double fraction = 0.0;
  /// Free-form tag carried into traces and the timeline table.
  std::string label;
};

struct FaultPlan {
  std::vector<FaultWindow> windows;
  bool empty() const { return windows.empty(); }
};

/// Plan text format (docs/FAULTS.md), read by obs::read_directives: one
/// window per line, '#' comments, times in simulated seconds —
///
///   window kind=tracker_outage  start=120 end=240 group=0 label=tele-dark
///   window kind=bootstrap_outage start=60 end=90
///   window kind=link_degrade    start=90 end=300 a=TELE b=CNC loss=0.25 added_rtt_ms=150
///   window kind=blackout        start=200 end=260 a=CNC
///   window kind=churn_burst     at=240 fraction=0.3
///   window kind=uplink_brownout start=300 end=420 fraction=0.2 loss=0.5
struct PlanParseResult {
  FaultPlan plan;     // empty whenever error is set
  std::string error;  // empty on success
  bool ok() const { return error.empty(); }
};

PlanParseResult parse_fault_plan(std::istream& in);
PlanParseResult load_fault_plan(const std::string& path);

/// Structural validation (ranges, orderings). Empty string when valid;
/// parse_fault_plan already runs this.
std::string validate(const FaultPlan& plan);

/// Serializes in the parseable text format (round-trips through
/// parse_fault_plan).
void write_fault_plan(std::ostream& os, const FaultPlan& plan);

/// The canned demonstration schedule from the issue: a tracker-group
/// blackout overlapping TELE<->CNC cross-ISP throttling, followed by a
/// churn burst — the scenario bench_resilience and the CI smoke step run.
FaultPlan tracker_blackout_throttle_plan();

}  // namespace ppsim::faults
