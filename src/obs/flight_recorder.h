#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ppsim::obs {

/// A TraceSink with memory: keeps the last kRingCapacity events *per event
/// name* in bounded rings (so rare control events like fault_begin are not
/// evicted by high-volume data events). The experiment runner feeds it
/// every trace row, sim_event rows included. On a trigger — a critical
/// watchdog trip via HealthMonitor's hook, a `peer_crash`, or a
/// `fault_begin`, all auto-detected from the event stream — it dumps a
/// post-mortem NDJSON bundle to `dir`: buffered events in arrival order,
/// the trailing sampler window, and a snapshot of its metrics registry.
/// Everything in the bundle is stamped with sim time only, so same-seed
/// dumps are byte-identical.
class FlightRecorder final : public TraceSink {
 public:
  static constexpr std::size_t kRingCapacity = 64;  // events per event name
  static constexpr std::size_t kSampleWindow = 16;  // trailing TrafficSamples
  static constexpr std::size_t kMaxDumps = 16;  // per run, then triggers no-op
  static constexpr sim::Time kMinDumpGap = sim::Time::seconds(30);  // debounce

  struct Options {
    std::string dir;                     // bundle directory; empty = dumps off
    MetricsRegistry* metrics = nullptr;  // snapshotted per bundle; borrowed
  };
  /// Called with the registry right before a bundle writes its metrics
  /// section, so counts kept elsewhere can be copied in first.
  using PreDumpHook = std::function<void(MetricsRegistry&)>;

  explicit FlightRecorder(Options options);

  /// The experiment runner sets the hook for the run and clears it before
  /// it returns. At most one hook.
  void set_pre_dump_hook(PreDumpHook hook) { pre_dump_hook_ = std::move(hook); }

  /// TraceSink: buffer the event; auto-trigger on peer_crash/fault_begin.
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

  /// Converges the postmortem_dumps counter on dumps_written(); the series
  /// appears with the first bundle written.
  void export_metrics(MetricsRegistry& registry) const;

 private:
  struct Buffered {
    std::uint64_t order;  // global arrival index, merges rings back in order
    TraceEvent event;
  };

  void dump(sim::Time now, std::string_view reason);

  Options options_;
  PreDumpHook pre_dump_hook_;
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
