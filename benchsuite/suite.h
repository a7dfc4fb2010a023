#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "capture/trace.h"
#include "proto/message.h"

namespace ppsim::benchsuite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+system CPU seconds consumed by this process so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Median of a non-empty sample (upper median for even sizes).
inline double median(std::vector<double> v) {
  const auto mid = static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[v.size() / 2];
}

// --- layer probes (probes.cc) ---

/// ns per event of Simulator::schedule_at + run on no-op events while the
/// queue is held at `depth` pending events.
double scheduler_probe_ns(std::size_t depth);

/// us per TrackerQuery handled (reply sent) by a proto::TrackerServer that
/// holds `members` live channel members, fed over an in-memory transport.
double tracker_probe_us(std::size_t members);

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
/// Mean ns per message of wire::encode_message / decode_message over `mix`.
CodecCost codec_probe(const std::vector<proto::Message>& mix);

// --- loopback replay (wire_replay.cc) ---

/// The replayable messages of a capture, in capture order: every record
/// whose message type carries a channel field (the field the replay
/// overwrites with the datagram's send index).
std::vector<proto::Message> replay_mix(const capture::PacketTrace& trace);

struct ReplayOptions {
  std::uint16_t port = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t offset = 0;  // datagram i carries mix[(offset + i) % size]
  bool traced = false;
};

struct ReplayResult {
  double setup_s = 0;  // median over setup reps
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t sent = 0;
  std::uint64_t matched = 0;   // delivered once, intact, to the right host
  std::uint64_t failed = 0;    // lost, rejected, corrupted or duplicated
  std::uint64_t rx_errors = 0;
  std::uint64_t uplink_drops = 0;
  std::uint64_t downlink_drops = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  std::uint64_t rx_queue_peak = 0;
  // Stage timings, filled only when traced.
  double send_us = 0;               // per send() call
  double poll_us_per_dgram = 0;
  double dispatch_us_per_dgram = 0;
  double dgrams_per_poll = 0;       // per poll() that returned data
};

ReplayResult replay(const std::vector<proto::Message>& mix,
                    const ReplayOptions& options);

}  // namespace ppsim::benchsuite
