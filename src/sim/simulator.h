#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/slab.h"
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
/// Pending events live in a slot arena, a Slab: each callback and its
/// category sit in a 40-byte slot reused through the slab's free list, in
/// chunks that never move, so growing the arena copies no callback and
/// leaves no doubling slack. A 4-ary implicit heap orders 16-byte keys
/// {when, seq << 24 | slot}; seq is unique, so the key order is exactly
/// (when, seq). A pop walks the hole to a leaf along the smallest of each
/// four children (Floyd's bottom-up descent, two levels of a binary heap
/// per step) and sifts the last key up from there. A slot is freed when its
/// event fires. The packing bounds a run to 2^24 pending events and 2^40
/// scheduled events; schedule_at throws past either.
///
/// Periodic chains (schedule_periodic) keep their tick in a table with
/// stable addresses, so a firing schedules a 16-byte {this, index} closure.
/// No per-event hashing, and an event whose closure fits std::function's
/// inline buffer (16 trivially copyable bytes in libstdc++) allocates
/// nothing.
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
  /// Throws std::length_error past kMaxPending pending events and
  /// std::overflow_error past kMaxScheduled events in the simulator's life.
  void schedule_at(Time when, Callback cb, const char* category = nullptr);

  /// Bounds of the 64-bit {seq, slot} key packing.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxPending = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxScheduled =
      (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Runs events until the queue is empty or `until` is reached; events
  /// scheduled exactly at `until` do fire. Returns the number of events run.
  std::uint64_t run_until(Time until);

  /// Runs until the queue drains completely.
  std::uint64_t run();

  /// Stops the current run_until()/run() loop after the current event.
  void request_stop() { stop_requested_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const { return heap_.size(); }

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

  /// Approximate heap footprint of the scheduler: queued 16-byte heap keys
  /// plus 40-byte arena slots, counted by element, not by chunk. Captures
  /// too large for std::function's inline buffer are not visible from here,
  /// and neither is the periodic-chain table: it holds one entry per running
  /// chain, not per pending event. For the resource-probe gauges, not for
  /// exact accounting.
  std::size_t approx_queue_bytes() const {
    return heap_.size() * sizeof(Key) + slots_.size() * sizeof(Slot);
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
  friend void schedule_periodic(Simulator& simulator, Time period,
                                std::function<bool()> tick,
                                const char* category);

  /// Heap entry: the firing time, then the sequence number above the
  /// callback's slot index in one word. `when` is never negative (schedule_at
  /// clamps to now(), which starts at zero), so (when, order) compares as one
  /// unsigned 128-bit number.
  struct Key {
    Time when;
    std::uint64_t order;  // seq << kSlotBits | slot
  };
  static bool before(const Key& a, const Key& b) {
    const auto wide = [](const Key& k) {
      return static_cast<__uint128_t>(
                 static_cast<std::uint64_t>(k.when.as_micros()))
                 << 64 |
             k.order;
    };
    return wide(a) < wide(b);
  }
  static constexpr std::uint64_t kSlotMask = kMaxPending - 1;

  /// One pending event's payload; a free slot holds an empty callback.
  struct Slot {
    Callback cb;
    const char* category = nullptr;  // observer label; nullptr = untagged
  };

  /// One schedule_periodic chain; a free entry holds an empty tick.
  struct Chain {
    std::function<bool()> tick;
    Time period;
    const char* category = nullptr;
  };

  void push(Key key);
  void pop();
  /// Runs chain `index`'s tick and, if it returns true, re-arms the chain
  /// under a sequence number taken after the tick; otherwise frees it.
  void fire_chain(std::uint32_t index);

  Time now_;
  Time latest_scheduled_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_span_id_ = 0;
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::vector<Key> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  Slab<Slot> slots_;
  Slab<Chain> chains_;
  std::vector<SimObserver*> observers_;
  TraceSink* trace_sink_ = nullptr;
  bool causal_tracing_ = false;
};

/// Runs `tick` every `period` until it returns false, the only way to stop
/// the chain. Each re-arm takes its sequence number after the tick returns.
/// `category` labels every firing of the chain for observers. A tick may
/// start other chains; a chain still pending when the simulator is
/// destroyed is destroyed with it.
void schedule_periodic(Simulator& simulator, Time period,
                       std::function<bool()> tick,
                       const char* category = nullptr);

}  // namespace ppsim::sim
