#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ppsim::obs {

/// A TraceSink tee with memory: forwards every event to an optional
/// downstream sink and keeps the last `ring_capacity` events *per event
/// name* in bounded rings (so rare control events like fault_begin are not
/// evicted by high-volume data events). On a trigger — a critical watchdog
/// trip via HealthMonitor's hook, a `peer_crash`, or a `fault_begin`, all
/// auto-detected from the event stream — it dumps a post-mortem NDJSON
/// bundle to `dir`: buffered events in arrival order, the trailing sampler
/// window, and a metrics snapshot. Everything in the bundle is stamped with
/// sim time only, so same-seed dumps are byte-identical.
class FlightRecorder final : public TraceSink {
 public:
  struct Options {
    std::size_t ring_capacity = 64;  // buffered events per event name
    std::size_t sample_window = 16;  // trailing TrafficSamples kept
    std::size_t max_dumps = 16;      // bundles per run, then triggers no-op
    /// Cap on events *written per event name* in one bundle, bounding the
    /// per-dump cost when rings are sized up for big runs. A ring holding
    /// more contributes only its newest max_dump_per_category events, and
    /// the bundle's events section carries one explicit
    /// {"truncated":name,"kept":K,"dropped":D} marker row per capped ring.
    std::size_t max_dump_per_category = 64;
    sim::Time min_dump_gap = sim::Time::seconds(30);  // sim-time debounce
    std::string dir;                 // bundle directory; empty = dumps off
    TraceSink* downstream = nullptr;  // forwarded every event; borrowed
    MetricsRegistry* metrics = nullptr;  // postmortem_dumps counter; borrowed
  };

  explicit FlightRecorder(Options options);

  /// TraceSink: buffer, forward, and auto-trigger on peer_crash/fault_begin.
  void write(const TraceEvent& event) override;

  /// Feeds the trailing sampler window (the runner calls this right after
  /// TrafficSampler::record on each sampling tick).
  void note_sample(const TrafficSample& sample);

  /// Requests a post-mortem dump at sim time `now`. Honors the debounce gap
  /// and the per-run dump budget; no-op without a configured dir. Returns
  /// true when a bundle was written.
  bool trigger(sim::Time now, std::string_view reason);

  std::uint64_t dumps_written() const { return dumps_written_; }
  std::uint64_t dump_failures() const { return dump_failures_; }
  const std::vector<std::string>& dump_paths() const { return dump_paths_; }
  /// Events currently buffered across all rings.
  std::size_t events_buffered() const { return events_buffered_; }

 private:
  struct Buffered {
    std::uint64_t order;  // global arrival index, merges rings back in order
    TraceEvent event;
  };

  void dump(sim::Time now, std::string_view reason);

  Options options_;
  std::map<std::string, std::deque<Buffered>> rings_;
  std::deque<TrafficSample> samples_;
  std::uint64_t arrival_ = 0;
  std::size_t events_buffered_ = 0;
  std::uint64_t dumps_written_ = 0;
  std::uint64_t dump_failures_ = 0;
  bool has_last_dump_ = false;
  sim::Time last_dump_;
  std::vector<std::string> dump_paths_;
};

}  // namespace ppsim::obs
