#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/observer.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace ppsim::obs {

/// TraceEvent and the abstract TraceSink moved down to sim/trace.h so the
/// protocol layer can emit events without an upward proto -> obs include
/// (the lint layering pass enforces the module DAG). Re-exported here under
/// their historical names; observability code keeps saying obs::TraceEvent.
using TraceEvent = sim::TraceEvent;
using TraceSink = sim::TraceSink;

/// Serializes events as NDJSON: one {"t":<sim-seconds>,"ev":<name>,...}
/// object per line, fields in emission order (see docs/OBSERVABILITY.md).
class NdjsonTraceSink final : public TraceSink {
 public:
  explicit NdjsonTraceSink(std::ostream& os) : os_(os) {}
  void write(const TraceEvent& event) override;
  std::uint64_t events_written() const { return events_written_; }

 private:
  std::ostream& os_;
  std::uint64_t events_written_ = 0;
};

/// Fans one event stream out to several sinks in a fixed order. Sinks are
/// borrowed, not owned; null entries are skipped. This is how the
/// experiment runner hands the trace sink, the flight recorder and the span
/// tracker one emission stream — every sink observes the exact same event
/// sequence, a property the sink-composition tests pin byte-for-byte.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink(std::initializer_list<TraceSink*> sinks) : sinks_(sinks) {}
  void write(const TraceEvent& event) override {
    for (TraceSink* sink : sinks_) {
      if (sink != nullptr) sink->write(event);
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Adapter from the simulator's observer hook to a TraceSink: emits one
/// "sim_event" row per executed event (sequence number, category, queue
/// depth). High volume — opt-in separately from protocol tracing.
class SimEventTracer final : public sim::SimObserver {
 public:
  explicit SimEventTracer(TraceSink& sink) : sink_(sink) {}
  void on_event_begin(sim::Time now, std::uint64_t seq, const char* category,
                      std::size_t queue_depth) override;

 private:
  TraceSink& sink_;
};

}  // namespace ppsim::obs
