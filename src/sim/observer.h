#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace ppsim::sim {

/// Passive hook into the simulator's event loop, for observability layers
/// (tracing, profiling) that must never influence the run itself.
///
/// Observers are invoked synchronously around each executed event, so they
/// may read simulator state but must not schedule events or otherwise
/// mutate it — an observer that feeds back into the event queue would break
/// the determinism contract the whole tree is built on. `category` is the
/// label the scheduling site attached to the event ("" when untagged); it
/// points at a string literal, so it may be retained without copying.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// Called just before an event's callback runs. `queue_depth` is the
  /// number of events still pending (the fired event excluded).
  virtual void on_event_begin(Time now, std::uint64_t seq,
                              const char* category,
                              std::size_t queue_depth) = 0;

  /// Called right after the callback returns. Wall-clock profilers pair
  /// this with on_event_begin; tracing observers can usually ignore it.
  virtual void on_event_end(Time now, const char* category) {
    (void)now;
    (void)category;
  }
};

}  // namespace ppsim::sim
