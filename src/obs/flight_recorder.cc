#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace ppsim::obs {

namespace {

/// File-name-safe version of a trigger reason ("health:continuity" ->
/// "health-continuity"); anything outside [a-zA-Z0-9_-] becomes '-'.
std::string sanitize(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '-');
  }
  return out.empty() ? std::string("trigger") : out;
}

}  // namespace

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {}

void FlightRecorder::write(const TraceEvent& event) {
  auto& ring = rings_[event.name()];
  ring.push_back(Buffered{arrival_++, event});
  ++events_buffered_;
  while (ring.size() > kRingCapacity) {
    ring.pop_front();
    --events_buffered_;
  }
  // Anomaly markers from the fault layer double as dump triggers: capture
  // the swarm state around every crash and at each fault-window onset.
  if (event.name() == "peer_crash" || event.name() == "fault_begin")
    trigger(event.time(), event.name());
}

void FlightRecorder::note_sample(const TrafficSample& sample) {
  samples_.push_back(sample);
  while (samples_.size() > kSampleWindow) samples_.pop_front();
}

bool FlightRecorder::trigger(sim::Time now, std::string_view reason) {
  if (options_.dir.empty()) return false;
  if (dumps_written_ + dump_failures_ >= kMaxDumps) return false;
  if (has_last_dump_ && now < last_dump_ + kMinDumpGap) return false;
  has_last_dump_ = true;
  last_dump_ = now;
  dump(now, reason);
  return true;
}

void FlightRecorder::dump(sim::Time now, std::string_view reason) {
  const std::uint64_t index = dumps_written_ + dump_failures_;
  char name[128];
  std::snprintf(name, sizeof(name), "postmortem-%03llu-%s-t%lld.ndjson",
                static_cast<unsigned long long>(index),
                sanitize(reason).c_str(),
                static_cast<long long>(now.as_micros()));
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  const std::string path =
      (std::filesystem::path(options_.dir) / name).string();
  std::ofstream os(path);
  if (!os) {
    ++dump_failures_;
    return;
  }

  // Header, then three marked sections so the bundle self-describes for
  // ppsim-analyze --postmortem. Events replay in global arrival order by
  // merging the per-name rings on their arrival index.
  std::vector<const Buffered*> ordered;
  ordered.reserve(events_buffered_);
  for (const auto& entry : rings_)
    for (const Buffered& buffered : entry.second) ordered.push_back(&buffered);
  std::sort(ordered.begin(), ordered.end(),
            [](const Buffered* a, const Buffered* b) {
              return a->order < b->order;
            });

  os << "{\"postmortem\":";
  write_json_string(os, reason);
  os << ",\"t\":";
  write_json_sim_time(os, now);
  os << ",\"dump\":" << index << ",\"events\":" << ordered.size()
     << ",\"samples\":" << samples_.size() << "}\n";

  os << "{\"section\":\"events\",\"count\":" << ordered.size() << "}\n";
  NdjsonTraceSink events_sink(os);
  for (const Buffered* b : ordered) events_sink.write(b->event);

  os << "{\"section\":\"samples\",\"count\":" << samples_.size() << "}\n";
  write_samples_ndjson(
      os, std::vector<TrafficSample>(samples_.begin(), samples_.end()));

  std::size_t metric_count = 0;
  if (options_.metrics != nullptr) {
    if (pre_dump_hook_) pre_dump_hook_(*options_.metrics);
    metric_count = options_.metrics->size();
  }
  os << "{\"section\":\"metrics\",\"count\":" << metric_count << "}\n";
  if (options_.metrics != nullptr) options_.metrics->write_ndjson(os);

  if (!os) {
    ++dump_failures_;
    return;
  }
  ++dumps_written_;
  dump_paths_.push_back(path);
}

void FlightRecorder::export_metrics(MetricsRegistry& registry) const {
  if (dumps_written_ > 0)
    registry.counter("postmortem_dumps").raise_to(dumps_written_);
}

}  // namespace ppsim::obs
