#include "obs/resource_probe.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace ppsim::obs {

namespace {

/// Reads one "VmRSS:  123 kB"-style field out of /proc/self/status.
/// Returns 0 when the file or the field is unavailable (non-Linux hosts).
std::uint64_t proc_status_kb(const char* field) {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 &&
        line[field_len] == ':') {
      kb = std::strtoull(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

}  // namespace

std::uint64_t ResourceProbe::current_rss_bytes() {
  return proc_status_kb("VmRSS") * 1024;
}

std::uint64_t ResourceProbe::peak_rss_bytes() {
  return proc_status_kb("VmHWM") * 1024;
}

const ResourceProbe::Sample& ResourceProbe::sample(const Inputs& in) {
  Sample s;
  s.t = in.now;
  s.rss_bytes = current_rss_bytes();
  s.peak_rss_bytes = peak_rss_bytes();
  s.queue_depth = in.queue_depth;
  s.event_horizon_s = in.event_horizon.as_seconds();
  s.events_executed = in.events_executed;
  s.queue_bytes = in.queue_bytes;
  s.live_peers = in.live_peers;
  s.live_peer_bytes = in.live_peer_bytes;
  const std::uint64_t events_delta = in.events_executed - prev_events_;
  const double wall_delta = in.wall_seconds - prev_wall_seconds_;
  s.events_per_wall_s =
      wall_delta > 0 ? static_cast<double>(events_delta) / wall_delta : 0.0;
  prev_events_ = in.events_executed;
  prev_wall_seconds_ = in.wall_seconds;

  samples_.push_back(s);
  while (samples_.size() > retain_) samples_.pop_front();
  return samples_.back();
}

void ResourceProbe::export_metrics(MetricsRegistry& registry) const {
  if (samples_.empty()) return;
  const Sample& s = samples_.back();
  // In kResourceGaugeNames order.
  const double values[] = {static_cast<double>(s.rss_bytes),
                           static_cast<double>(s.peak_rss_bytes),
                           static_cast<double>(s.queue_depth),
                           s.event_horizon_s,
                           static_cast<double>(s.queue_bytes),
                           s.events_per_wall_s,
                           static_cast<double>(s.live_peers),
                           static_cast<double>(s.live_peer_bytes)};
  static_assert(std::size(values) == kResourceGaugeNames.size());
  for (std::size_t i = 0; i < std::size(values); ++i)
    registry.gauge(kResourceGaugeNames[i]).set(values[i]);
}

}  // namespace ppsim::obs
