#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ppsim::obs {

/// The health signals a watchdog rule can bind to. Each maps onto one
/// quantity the experiment runner already measures on the sampler tick:
/// floors watch a value that must stay high (playback continuity),
/// ceilings watch a value that must stay low (isolated peers, stalled
/// startups, scheduler backlog); the drift rule compares the intra-ISP
/// traffic share against its own trailing window.
enum class HealthRuleKind : std::uint8_t {
  kContinuityFloor = 0,    // floor on mean playback continuity
  kPeerIsolation = 1,      // ceiling on alive peers with zero neighbors
  kIspShareDrift = 2,      // ceiling on the drop of the intra-ISP interval
                           // share vs its trailing-window mean
  kStartupDelaySlo = 3,    // ceiling on peers past the startup budget
  kQueueDepthCeiling = 4,  // ceiling on the scheduler's pending events
};

std::string_view to_string(HealthRuleKind k);
/// Accepts the rule-file spelling ("continuity_floor", "peer_isolation", ...).
bool parse_health_rule_kind(std::string_view s, HealthRuleKind* out);

/// Whether breaching means dropping below (floor) or rising above (ceiling).
bool is_floor(HealthRuleKind k);

/// One declarative watchdog rule. `warn` and `critical` are thresholds on
/// the rule's signal: for floors critical <= warn (deeper dip is worse),
/// for ceilings critical >= warn. Kind-specific knobs keep their defaults
/// when unused.
struct HealthRule {
  HealthRuleKind kind = HealthRuleKind::kContinuityFloor;
  double warn = 0;
  double critical = 0;
  /// Evaluation starts only after this much sim time, so ramp-up noise
  /// (empty buffers, unstarted playback) cannot trip a fresh run.
  sim::Time after;
  /// kIspShareDrift: trailing-window length in samples; the rule stays
  /// silent until the window has filled.
  int trailing = 6;
  /// kStartupDelaySlo: per-peer startup budget in seconds.
  double slo_s = 30.0;
  /// Free-form tag carried into traces, metrics labels, and the timeline.
  std::string label;

  /// The label when set, the kind spelling otherwise.
  std::string display_name() const;
};

struct HealthRuleSet {
  std::vector<HealthRule> rules;
  bool empty() const { return rules.empty(); }
};

/// Rule text format (docs/OBSERVABILITY.md), read by obs::read_directives:
/// one rule per line, '#' comments, thresholds in the rule's own unit —
///
///   rule kind=continuity_floor    warn=0.90 critical=0.75 after=45 label=continuity
///   rule kind=peer_isolation      warn=3 critical=8
///   rule kind=isp_share_drift     warn=0.35 critical=0.6 trailing=4
///   rule kind=startup_delay_slo   warn=3 critical=10 slo_s=30
///   rule kind=queue_depth_ceiling warn=20000 critical=50000
struct HealthRulesParseResult {
  HealthRuleSet rules;  // empty whenever error is set
  std::string error;    // empty on success
  bool ok() const { return error.empty(); }
};

HealthRulesParseResult parse_health_rules(std::istream& in);
HealthRulesParseResult load_health_rules(const std::string& path);

/// Structural validation (threshold orderings, ranges). Empty string when
/// valid; parse_health_rules already runs this.
std::string validate(const HealthRuleSet& rules);

/// Serializes in the parseable text format (round-trips through
/// parse_health_rules).
void write_health_rules(std::ostream& os, const HealthRuleSet& rules);

/// The canned rule set the CI smoke runs against the tracker-blackout
/// fault plan: one rule of every kind, thresholds tuned so the canned
/// plan trips the continuity watchdog and a healthy run trips nothing.
HealthRuleSet default_health_rules();

/// Per-rule severity, ordered: comparisons with < are meaningful.
enum class HealthState : std::uint8_t { kOk = 0, kWarn = 1, kCritical = 2 };
std::string_view to_string(HealthState s);

/// One evaluation's worth of signals, supplied by the sampler tick.
struct HealthInput {
  sim::Time t;
  double avg_continuity = 0;
  double same_isp_share_interval = 0;
  std::uint64_t interval_bytes = 0;  // drift is skipped on idle intervals
  std::uint64_t alive_peers = 0;
  std::uint64_t isolated_peers = 0;  // alive with zero neighbors
  /// Seconds each alive-but-not-yet-playing viewer has waited since join.
  std::vector<double> startup_waits_s;
  std::uint64_t queue_depth = 0;  // scheduler pending events
};

/// Where one rule's state machine ended up, plus its trip history.
struct HealthRuleStatus {
  HealthState state = HealthState::kOk;   // state after the last evaluation
  HealthState worst = HealthState::kOk;   // worst state ever reached
  std::uint64_t trips = 0;                // ok -> warn|critical transitions
  std::uint64_t warns = 0;                // entries into warn
  std::uint64_t criticals = 0;            // entries into critical
  std::uint64_t clears = 0;               // warn|critical -> ok transitions
  sim::Time first_trip;                   // meaningful when trips > 0
  double last_value = 0;                  // signal at the last evaluation
  double worst_value = 0;                 // most extreme signal while tripped
  std::uint64_t evaluations = 0;
};

/// End-of-run digest attached to core::ExperimentResult.
struct HealthSummary {
  HealthState worst = HealthState::kOk;
  /// Parallel to the configured rule set, in rule order.
  std::vector<std::pair<HealthRule, HealthRuleStatus>> rules;

  bool ever_tripped() const {
    for (const auto& [rule, status] : rules)
      if (status.trips > 0) return true;
    return false;
  }
};

/// Declarative watchdog engine: evaluate() runs every rule's ok -> warn ->
/// critical -> clear state machine against one HealthInput, counting each
/// transition in the rule's HealthRuleStatus and emitting a "health.warn" /
/// "health.critical" / "health.clear" event to `trace` (borrowed; may be
/// null). Purely observational — it reads no RNG and mutates nothing
/// outside itself, so an attached monitor cannot change the simulated
/// trajectory.
class HealthMonitor {
 public:
  using CriticalHook =
      std::function<void(sim::Time, const HealthRule&, double value)>;

  explicit HealthMonitor(HealthRuleSet rules, TraceSink* trace = nullptr);

  void evaluate(const HealthInput& input);

  /// Converges health_trips / health_warns / health_criticals /
  /// health_clears{rule} on the rules' statuses. Rules that share a label
  /// share a row, and a row appears with its first count.
  void export_metrics(MetricsRegistry& registry) const;

  /// Invoked on every entry into critical (the flight recorder's dump
  /// trigger). At most one hook.
  void set_critical_hook(CriticalHook hook) { critical_hook_ = std::move(hook); }

  HealthSummary summary() const;

 private:
  struct RuleState {
    HealthRuleStatus status;
    std::deque<double> trailing;  // kIspShareDrift share history
  };

  /// Computes rule i's signal; false when the rule abstains this tick
  /// (warm-up, unfilled trailing window, idle interval).
  bool signal(std::size_t i, const HealthInput& input, double* value);
  void transition(std::size_t i, sim::Time t, HealthState to, double value);
  void emit(std::size_t i, sim::Time t, const char* event, HealthState from,
            HealthState to, double value);

  HealthRuleSet rules_;
  TraceSink* trace_;
  CriticalHook critical_hook_;
  std::vector<RuleState> states_;
};

/// One health.* transition parsed back out of a trace NDJSON (the
/// offline half: ppsim-analyze --health).
struct HealthTransition {
  sim::Time t;
  std::size_t rule = 0;
  HealthRuleKind kind = HealthRuleKind::kContinuityFloor;
  std::string label;
  HealthState from = HealthState::kOk;
  HealthState to = HealthState::kOk;
  double value = 0;
};

/// Scans a trace NDJSON for health.warn/health.critical/health.clear rows.
/// Non-health lines are skipped silently; malformed health lines are
/// counted in *dropped (when non-null).
std::vector<HealthTransition> read_health_events_ndjson(
    std::istream& is, std::size_t* dropped = nullptr);

/// Per-rule timeline digest of a transition stream.
struct HealthRuleTimeline {
  std::size_t rule = 0;
  HealthRuleKind kind = HealthRuleKind::kContinuityFloor;
  std::string label;
  std::uint64_t trips = 0;
  std::uint64_t criticals = 0;
  std::uint64_t clears = 0;
  sim::Time first_trip;
  sim::Time last_clear;
  double worst_value = 0;     // most extreme value carried by a transition
  bool has_worst = false;
  HealthState final_state = HealthState::kOk;
};

std::vector<HealthRuleTimeline> analyze_health_timeline(
    const std::vector<HealthTransition>& transitions);

/// Fixed-width table in the print_fault_timeline style, so watchdog runs
/// and fault-plan runs read side by side.
void print_health_timeline(std::ostream& os,
                           const std::vector<HealthRuleTimeline>& rows);

}  // namespace ppsim::obs
