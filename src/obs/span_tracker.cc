#include "obs/span_tracker.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "obs/json.h"

namespace ppsim::obs {

namespace {

const TraceEvent::Value* find_field(const TraceEvent& e,
                                    std::string_view key) {
  for (const auto& f : e.fields()) {
    if (f.key == key) return &f.value;
  }
  return nullptr;
}

std::uint64_t u64_field(const TraceEvent& e, std::string_view key) {
  const auto* v = find_field(e, key);
  if (v == nullptr) return 0;
  if (const auto* u = std::get_if<std::uint64_t>(v)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(v))
    return *i < 0 ? 0 : static_cast<std::uint64_t>(*i);
  return 0;
}

std::string_view str_field(const TraceEvent& e, std::string_view key) {
  const auto* v = find_field(e, key);
  if (v == nullptr) return {};
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return {};
}

}  // namespace

LineageSummary summarize_lineage(
    const std::vector<ReferralRecord>& referrals) {
  LineageSummary s;
  for (const auto& r : referrals) {
    auto& via = s.by_via[r.via.empty() ? "unknown" : r.via];
    ++via.referrals;
    ++s.total.referrals;
    if (r.same_isp) {
      ++via.same_isp;
      ++s.total.same_isp;
    }
  }
  return s;
}

std::vector<ReferralShareBucket> referral_share_series(
    const std::vector<ReferralRecord>& referrals, sim::Time bucket) {
  std::vector<ReferralShareBucket> out;
  const std::int64_t width = bucket.as_micros();
  if (referrals.empty() || width <= 0) return out;
  std::map<std::int64_t, ReferralShareBucket> buckets;
  for (const auto& r : referrals) {
    const std::int64_t idx = r.t.as_micros() / width;
    auto& b = buckets[idx];
    b.t_start = sim::Time::micros(idx * width);
    b.t_end = sim::Time::micros((idx + 1) * width);
    ++b.referrals;
    if (r.same_isp) ++b.same_isp;
  }
  out.reserve(buckets.size());
  for (const auto& [idx, b] : buckets) out.push_back(b);
  return out;
}

SpanTracker::SpanTracker() : SpanTracker(Options()) {}

SpanTracker::SpanTracker(Options options) : options_(std::move(options)) {}

std::string SpanTracker::resolve_isp(std::string_view ip) const {
  if (!options_.isp_of || ip.empty() || ip == "0.0.0.0") return {};
  return options_.isp_of(ip);
}

void SpanTracker::write(const TraceEvent& event) {
  ++events_observed_;

  // Span-tree node: any span-bearing event registers its span. A span can
  // surface in two events (the sender's serve event and the receiver's
  // reply event); the first occurrence wins and both agree on the parent.
  const std::uint64_t span = u64_field(event, "span");
  if (span != 0) {
    spans_.emplace(span, SpanNode{u64_field(event, "parent"), event.time()});
  }

  const std::string_view peer = str_field(event, "peer");
  if (peer.empty()) return;
  const std::string& name = event.name();
  const auto milestone = [&](bool Milestones::*has,
                             sim::Time Milestones::*at) {
    Milestones& m = milestones_[std::string(peer)];
    if (!(m.*has)) {
      m.*has = true;
      m.*at = event.time();
    }
  };

  if (name == "peer_join") {
    Milestones& m = milestones_[std::string(peer)];
    if (!m.has_join) {
      m.has_join = true;
      m.join = event.time();
      m.isp = std::string(str_field(event, "isp"));
    }
  } else if (name == "join_reply") {
    milestone(&Milestones::has_join_reply, &Milestones::join_reply);
  } else if (name == "tracker_reply") {
    milestone(&Milestones::has_tracker_reply, &Milestones::tracker_reply);
  } else if (name == "connect_attempt") {
    milestone(&Milestones::has_connect_attempt,
              &Milestones::connect_attempt);
  } else if (name == "connect_result") {
    if (str_field(event, "outcome") == "accepted") {
      milestone(&Milestones::has_connected, &Milestones::connected);
      ReferralRecord r;
      r.t = event.time();
      r.peer = std::string(peer);
      r.neighbor = std::string(str_field(event, "from"));
      r.via = std::string(str_field(event, "via"));
      if (r.via.empty()) r.via = "unknown";
      r.introducer = std::string(str_field(event, "introducer"));
      auto it = milestones_.find(r.peer);
      r.peer_isp = (it != milestones_.end() && !it->second.isp.empty())
                       ? it->second.isp
                       : resolve_isp(r.peer);
      r.introducer_isp = resolve_isp(r.introducer);
      r.same_isp = !r.peer_isp.empty() && r.peer_isp == r.introducer_isp;
      referrals_.push_back(std::move(r));
    }
  } else if (name == "chunk_delivered") {
    milestone(&Milestones::has_first_chunk, &Milestones::first_chunk);
  } else if (name == "playback_start") {
    milestone(&Milestones::has_playback, &Milestones::playback);
  }
}

std::uint64_t SpanTracker::parent_of(std::uint64_t span) const {
  auto it = spans_.find(span);
  return it == spans_.end() ? 0 : it->second.parent;
}

std::vector<std::uint64_t> SpanTracker::ancestry(std::uint64_t span) const {
  std::vector<std::uint64_t> chain;
  while (span != 0 && chain.size() < 1024) {
    auto it = spans_.find(span);
    if (it == spans_.end()) break;
    chain.push_back(span);
    span = it->second.parent;
  }
  return chain;
}

std::vector<CriticalPath> SpanTracker::critical_paths() const {
  std::vector<CriticalPath> out;
  for (const auto& [peer, m] : milestones_) {
    if (!m.has_join || !m.has_playback) continue;
    CriticalPath cp;
    cp.peer = peer;
    cp.isp = m.isp;
    cp.t_join = m.join;
    cp.startup = m.playback - m.join;
    struct Raw {
      bool has;
      sim::Time t;
    };
    const std::array<Raw, 5> raw = {{
        {m.has_join_reply, m.join_reply},
        {m.has_tracker_reply, m.tracker_reply},
        {m.has_connect_attempt, m.connect_attempt},
        {m.has_connected, m.connected},
        {m.has_first_chunk, m.first_chunk},
    }};
    // Clamp each milestone into [previous, playback]: a missing milestone
    // collapses its stage to zero, an out-of-order one (e.g. a top-up
    // connect fired before the first tracker reply) never yields a
    // negative stage, and the telescoping sum stays exact.
    sim::Time prev = m.join;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      sim::Time cur = raw[i].has ? raw[i].t : prev;
      cur = std::max(prev, std::min(cur, m.playback));
      cp.stages[i] = cur - prev;
      prev = cur;
    }
    cp.stages[5] = m.playback - prev;
    out.push_back(std::move(cp));
  }
  return out;
}

void SpanTracker::write_ndjson(std::ostream& os) const {
  const auto paths = critical_paths();
  const auto shares = referral_share_series();
  os << "{\"spans_schema\":\"ppsim-spans-v1\",\"events\":" << events_observed_
     << ",\"spans\":" << spans_.size()
     << ",\"referrals\":" << referrals_.size()
     << ",\"critical_paths\":" << paths.size() << "}\n";
  for (const auto& r : referrals_) {
    os << "{\"kind\":\"referral\",\"t\":";
    write_json_sim_time(os, r.t);
    os << ",\"peer\":";
    write_json_string(os, r.peer);
    os << ",\"neighbor\":";
    write_json_string(os, r.neighbor);
    os << ",\"via\":";
    write_json_string(os, r.via);
    os << ",\"introducer\":";
    write_json_string(os, r.introducer);
    os << ",\"peer_isp\":";
    write_json_string(os, r.peer_isp);
    os << ",\"introducer_isp\":";
    write_json_string(os, r.introducer_isp);
    os << ",\"same_isp\":" << (r.same_isp ? "true" : "false") << "}\n";
  }
  for (const auto& b : shares) {
    os << "{\"kind\":\"referral_share\",\"t_start\":";
    write_json_sim_time(os, b.t_start);
    os << ",\"t_end\":";
    write_json_sim_time(os, b.t_end);
    os << ",\"referrals\":" << b.referrals << ",\"same_isp\":" << b.same_isp
       << ",\"share\":";
    write_json_double(os, b.share());
    os << "}\n";
  }
  for (const auto& p : paths) {
    os << "{\"kind\":\"critical_path\",\"peer\":";
    write_json_string(os, p.peer);
    os << ",\"isp\":";
    write_json_string(os, p.isp);
    os << ",\"t_join\":";
    write_json_sim_time(os, p.t_join);
    os << ",\"startup_s\":";
    write_json_sim_time(os, p.startup);
    for (std::size_t i = 0; i < p.stages.size(); ++i) {
      os << ",\"" << kStartupStageNames[i] << "_s\":";
      write_json_sim_time(os, p.stages[i]);
    }
    os << "}\n";
  }
}

bool read_spans_ndjson(std::istream& is, SpanFileData* out,
                       std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::string line, schema;
  if (!std::getline(is, line) ||
      !read_json_string(line, "spans_schema", &schema) ||
      schema != "ppsim-spans-v1")
    return fail("not a ppsim-spans-v1 file (missing header)");
  read_json_u64(line, "spans", &out->header_spans);
  int lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string kind;
    if (!read_json_string(line, "kind", &kind))
      return fail("line " + std::to_string(lineno) + ": missing kind");
    if (kind == "referral") {
      ReferralRecord r;
      read_json_sim_time(line, "t", &r.t);
      read_json_string(line, "peer", &r.peer);
      read_json_string(line, "neighbor", &r.neighbor);
      read_json_string(line, "via", &r.via);
      read_json_string(line, "introducer", &r.introducer);
      read_json_string(line, "peer_isp", &r.peer_isp);
      read_json_string(line, "introducer_isp", &r.introducer_isp);
      read_json_bool(line, "same_isp", &r.same_isp);
      out->referrals.push_back(std::move(r));
    } else if (kind == "critical_path") {
      CriticalPath p;
      read_json_string(line, "peer", &p.peer);
      read_json_string(line, "isp", &p.isp);
      read_json_sim_time(line, "t_join", &p.t_join);
      read_json_sim_time(line, "startup_s", &p.startup);
      for (std::size_t i = 0; i < kStartupStageNames.size(); ++i) {
        read_json_sim_time(line, std::string(kStartupStageNames[i]) + "_s",
                           &p.stages[i]);
      }
      out->paths.push_back(std::move(p));
    } else if (kind != "referral_share") {
      return fail("line " + std::to_string(lineno) + ": unknown kind " +
                  kind);
    }
  }
  return true;
}

}  // namespace ppsim::obs
