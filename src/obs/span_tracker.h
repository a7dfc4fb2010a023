#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

namespace ppsim::obs {

/// Causal tracing (docs/OBSERVABILITY.md, "Causal tracing"): when the
/// simulator runs with causal tracing on (sim::Simulator::set_tracing), the
/// protocol entities' trace events carry span/parent ids allocated from its
/// monotonic counter.
/// SpanTracker is a TraceSink — a peer of the flight recorder, typically
/// teed off the same stream — that reconstructs the span trees online and
/// distils the two artifacts the locality analysis needs:
///
///  * referral lineage: for every established neighbor, which entity
///    introduced it (bootstrap / tracker / gossiping peer / inbound
///    handshake) and whether referrer and referee share an ISP, aggregated
///    into a same-ISP-referral-fraction time series; and
///  * startup-delay critical paths: per peer, the named stages
///    bootstrap_wait / tracker_rtt / list_arrival / first_connect /
///    first_chunk / buffer_fill, which by construction sum *exactly* to the
///    measured startup delay (playback start minus join).
///
/// Deterministic by design: all state lives in ordered containers keyed on
/// span ids and IP strings, so same-seed runs serialize byte-identically.
/// Memory is O(spans observed); causal runs are experiment-scale and
/// opt-in, so no eviction is attempted.

/// Names of the startup critical-path stages, in order. The stages are
/// deltas between consecutive (monotonically clamped) milestones, so they
/// telescope: their sum is exactly playback_start - join.
inline constexpr std::array<const char*, 6> kStartupStageNames = {
    "bootstrap_wait", "tracker_rtt",  "list_arrival",
    "first_connect",  "first_chunk",  "buffer_fill"};

/// One established-neighbor referral, taken from an accepted
/// connect_result event.
struct ReferralRecord {
  sim::Time t;
  std::string peer;        // the accepting peer (handshake initiator)
  std::string neighbor;    // the neighbor that was established
  std::string via;         // bootstrap | tracker | gossip | inbound | unknown
  std::string introducer;  // IP of the referring entity
  std::string peer_isp;
  std::string introducer_isp;
  bool same_isp = false;
};

/// One bucket of the same-ISP-referral-fraction time series.
struct ReferralShareBucket {
  sim::Time t_start;
  sim::Time t_end;
  std::uint64_t referrals = 0;
  std::uint64_t same_isp = 0;
  double share() const {
    return referrals == 0
               ? 0.0
               : static_cast<double>(same_isp) / static_cast<double>(referrals);
  }
};

/// Referral counts grouped by introduction channel.
struct LineageSummary {
  struct ViaStats {
    std::uint64_t referrals = 0;
    std::uint64_t same_isp = 0;
    double share() const {
      return referrals == 0 ? 0.0
                            : static_cast<double>(same_isp) /
                                  static_cast<double>(referrals);
    }
  };
  std::map<std::string, ViaStats> by_via;
  ViaStats total;
};

/// One peer's startup-delay decomposition. stages follows
/// kStartupStageNames order; the entries sum exactly to `startup`.
struct CriticalPath {
  std::string peer;
  std::string isp;
  sim::Time t_join;
  sim::Time startup;  // playback_start - join
  std::array<sim::Time, 6> stages{};
};

LineageSummary summarize_lineage(const std::vector<ReferralRecord>& referrals);
std::vector<ReferralShareBucket> referral_share_series(
    const std::vector<ReferralRecord>& referrals, sim::Time bucket);

class SpanTracker final : public TraceSink {
 public:
  /// Width of the same-ISP-referral-fraction time-series buckets.
  static constexpr sim::Time kShareBucket = sim::Time::seconds(60);

  struct Options {
    /// Resolves an IP (dotted-quad text, as carried in trace fields) to an
    /// ISP label for lineage records; empty result means "unresolvable".
    /// Must be a pure deterministic function. Unset disables ISP
    /// resolution (every referral reports empty ISPs, same_isp=false).
    std::function<std::string(std::string_view ip)> isp_of;
  };

  SpanTracker();
  explicit SpanTracker(Options options);

  /// TraceSink hook: consumes span-bearing events (and the startup
  /// milestone events), ignores everything else cheaply.
  void write(const TraceEvent& event) override;

  std::uint64_t events_observed() const { return events_observed_; }
  std::size_t span_count() const { return spans_.size(); }
  /// Parent span of `span`, or 0 when the span is a root or unknown.
  std::uint64_t parent_of(std::uint64_t span) const;
  /// Chain from `span` up to its root (inclusive, starting at `span`).
  std::vector<std::uint64_t> ancestry(std::uint64_t span) const;

  const std::vector<ReferralRecord>& referrals() const { return referrals_; }
  std::vector<ReferralShareBucket> referral_share_series() const {
    return obs::referral_share_series(referrals_, kShareBucket);
  }
  LineageSummary lineage() const { return summarize_lineage(referrals_); }

  /// Startup critical paths for every peer that reached playback, in peer
  /// (string) order. Raw milestones are clamped monotonically between join
  /// and playback start, so missing or out-of-order milestones produce
  /// zero-length stages — never negative ones — and the exact-sum property
  /// holds unconditionally.
  std::vector<CriticalPath> critical_paths() const;

  /// Serializes the ppsim-spans-v1 NDJSON: a header line, then one row per
  /// referral, share bucket, and critical path (docs/OBSERVABILITY.md).
  void write_ndjson(std::ostream& os) const;

 private:
  struct SpanNode {
    std::uint64_t parent = 0;
    sim::Time t;
  };
  /// First-occurrence timestamps of one peer's startup milestones.
  struct Milestones {
    std::string isp;
    sim::Time join;
    sim::Time join_reply;
    sim::Time tracker_reply;
    sim::Time connect_attempt;
    sim::Time connected;
    sim::Time first_chunk;
    sim::Time playback;
    bool has_join = false;
    bool has_join_reply = false;
    bool has_tracker_reply = false;
    bool has_connect_attempt = false;
    bool has_connected = false;
    bool has_first_chunk = false;
    bool has_playback = false;
  };

  std::string resolve_isp(std::string_view ip) const;

  Options options_;
  std::uint64_t events_observed_ = 0;
  std::map<std::uint64_t, SpanNode> spans_;
  std::map<std::string, Milestones> milestones_;  // keyed by peer IP string
  std::vector<ReferralRecord> referrals_;
};

/// Parsed contents of a ppsim-spans-v1 file (ppsim-analyze --spans).
struct SpanFileData {
  std::uint64_t header_spans = 0;
  std::vector<ReferralRecord> referrals;
  std::vector<CriticalPath> paths;
};

/// Reads a spans NDJSON stream. Returns false (with `error` set, if given)
/// on a missing/foreign header or a malformed row. Share-series rows are
/// skipped: the series is recomputed from the referral rows.
bool read_spans_ndjson(std::istream& is, SpanFileData* out,
                       std::string* error = nullptr);

}  // namespace ppsim::obs
