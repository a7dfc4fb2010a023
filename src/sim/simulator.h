#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.h"

namespace ppsim::sim {

class SimObserver;
class TraceSink;

/// Single-threaded discrete-event simulator.
///
/// Events are callbacks ordered by (time, insertion sequence), giving a total
/// deterministic order: two events at the same instant fire in the order they
/// were scheduled. The simulator owns no domain state; protocol entities
/// capture what they need in their callbacks. Nothing cancels an event:
/// a periodic task stops by returning false, and a one-shot timer whose
/// owner may have stopped checks the owner's own flag when it fires.
///
/// Pending events live in a slot arena: each callback and its category sit
/// in a slot reused through a free list, and a binary heap orders small
/// {when, seq, slot} keys. A slot is freed when its event fires. No
/// per-event hashing.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` after the current time. Negative delays
  /// are clamped to zero (fire "now", after already-pending events at now).
  /// `category` labels the event for observers (tracing/profiling); it must
  /// point at storage outliving the simulator — in practice a string
  /// literal — and has no effect on the run itself.
  void schedule(Time delay, Callback cb, const char* category = nullptr) {
    schedule_at(delay.is_negative() ? now_ : now_ + delay, std::move(cb),
                category);
  }

  /// Schedules `cb` at an absolute time (clamped to `now()` if in the past).
  void schedule_at(Time when, Callback cb, const char* category = nullptr);

  /// Runs events until the queue is empty or `until` is reached; events
  /// scheduled exactly at `until` do fire. Returns the number of events run.
  std::uint64_t run_until(Time until);

  /// Runs until the queue drains completely.
  std::uint64_t run();

  /// Stops the current run_until()/run() loop after the current event.
  void request_stop() { stop_requested_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const { return queue_.size(); }

  /// Peak of pending_events() over the simulator's lifetime. The arena only
  /// grows when no freed slot is available, so its size is this high-water
  /// mark at no extra cost.
  std::size_t peak_pending_events() const { return slots_.size(); }

  /// Latest firing time ever scheduled (clamp-adjusted), even if that event
  /// has since fired. `latest_scheduled() - now()` is the scheduler's event
  /// horizon: how far into the simulated future the pending work currently
  /// reaches. Tracked as a two-comparison max in schedule_at, so the
  /// accounting costs nothing measurable per event.
  Time latest_scheduled() const { return latest_scheduled_; }

  /// Approximate heap footprint of the scheduler: queued heap keys plus
  /// arena slots, counted by size(), not capacity(). std::function captures
  /// are not visible from here. For the resource-probe gauges, not for exact
  /// accounting.
  std::size_t approx_queue_bytes() const {
    return queue_.size() * sizeof(Key) + slots_.size() * sizeof(Slot);
  }

  /// Sets the run's protocol trace: every entity driven by this simulator
  /// writes its trace events to `sink` (nullptr, the default, disables
  /// them at one branch per would-be event) and, with `causal` on, stamps
  /// span ids and emits the causal-only milestones (docs/OBSERVABILITY.md).
  /// Set once, before the first entity emits; purely observational, so the
  /// simulated trajectory is identical either way. The sink must outlive
  /// every entity that may still emit (a Peer emits from its destructor).
  void set_tracing(TraceSink* sink, bool causal) {
    trace_sink_ = sink;
    causal_tracing_ = causal;
  }
  TraceSink* trace_sink() const { return trace_sink_; }
  bool causal_tracing() const { return causal_tracing_; }

  /// Allocates the next causal-tracing span id: a plain monotonic counter,
  /// deterministic by construction (no RNG draw, no wall clock). Returns 0
  /// (no span) when causal tracing is off, so runs without it never consume
  /// ids and stay byte-identical.
  std::uint64_t allocate_span_id() {
    return causal_tracing_ ? ++last_span_id_ : 0;
  }

  /// Registers an observer notified around every executed event. Observers
  /// are purely passive (see SimObserver); with none registered the event
  /// loop takes the plain fast path. Not owned; callers remove (or outlive
  /// the simulator) before destroying the observer.
  void add_observer(SimObserver* observer);
  void remove_observer(SimObserver* observer);

 private:
  /// Heap entry: the ordering fields plus where the callback lives.
  struct Key {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Key& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  /// One pending event's payload; a free slot holds an empty callback.
  struct Slot {
    Callback cb;
    const char* category = nullptr;  // observer label; nullptr = untagged
  };

  Time now_;
  Time latest_scheduled_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_span_id_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<SimObserver*> observers_;
  TraceSink* trace_sink_ = nullptr;
  bool causal_tracing_ = false;
};

/// Convenience: runs `tick` every `period` until it returns false, the only
/// way to stop the chain. `category` labels every firing of the chain for
/// observers.
void schedule_periodic(Simulator& simulator, Time period,
                       std::function<bool()> tick,
                       const char* category = nullptr);

}  // namespace ppsim::sim
