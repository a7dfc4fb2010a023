#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/observer.h"
#include "sim/time.h"

namespace ppsim::sim {

void Simulator::schedule_at(Time when, Callback cb, const char* category) {
  assert(cb);
  if (next_seq_ > kMaxScheduled)
    throw std::overflow_error("sim::Simulator: more than 2^40 events scheduled");
  // One slot per pending event, so every slot index stays below kMaxPending.
  if (heap_.size() >= kMaxPending)
    throw std::length_error("sim::Simulator: more than 2^24 events pending");
  if (when < now_) when = now_;
  if (when > latest_scheduled_) latest_scheduled_ = when;
  const std::uint32_t slot = slots_.acquire();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.category = category;
  push(Key{when, next_seq_++ << kSlotBits | slot});
}

void Simulator::push(Key key) {
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

// Inlined into run_until, its only caller: as an out-of-line call it left
// BM_SimulatorScheduleRun/1000 about 15% slower (GCC 12, 4-vCPU Xeon).
[[gnu::always_inline]] inline void Simulator::pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Floyd's descent: move the hole from the root to a leaf along the
  // smallest child, then sift `last` up from there. `last` came from the
  // bottom, so it rarely climbs far, and the descent needs only the three
  // compares that pick each minimum. They pick by index arithmetic rather
  // than ?:, so that the compiler emits no branch: which child wins is a
  // coin flip to a branch predictor.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first + 4 <= n) {
      const Key* c = &heap_[first];
      const std::size_t a = before(c[1], c[0]);
      const std::size_t b = 2 + std::size_t{before(c[3], c[2])};
      const std::size_t b_wins = -std::size_t{before(c[b], c[a])};
      const std::size_t m = first + (a ^ ((a ^ b) & b_wins));
      heap_[hole] = heap_[m];
      hole = m;
      continue;
    }
    // Fewer than four children: they are the heap's last keys, so leaves.
    if (first < n) {
      std::size_t m = first;
      for (std::size_t c = first + 1; c < n; ++c)
        if (before(heap_[c], heap_[m])) m = c;
      heap_[hole] = heap_[m];
      hole = m;
    }
    break;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(last, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
}

void Simulator::add_observer(SimObserver* observer) {
  assert(observer != nullptr);
  observers_.push_back(observer);
}

void Simulator::remove_observer(SimObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  while (!heap_.empty() && !stop_requested_) {
    const Key key = heap_.front();
    if (key.when > until) break;
    pop();
    const auto index = static_cast<std::uint32_t>(key.order & kSlotMask);
    Slot& slot = slots_[index];
    const char* category = slot.category;
    // Free the slot before running so the callback may schedule into it.
    const Callback cb = std::exchange(slot.cb, nullptr);
    slots_.release(index);
    now_ = key.when;
    if (observers_.empty()) {
      cb();
    } else {
      const char* label = category == nullptr ? "" : category;
      const std::size_t depth = heap_.size();
      for (SimObserver* obs : observers_)
        obs->on_event_begin(now_, key.order >> kSlotBits, label, depth);
      cb();
      for (SimObserver* obs : observers_) obs->on_event_end(now_, label);
    }
    ++ran;
    ++events_executed_;
  }
  // Advance the clock to the horizon so repeated run_until calls observe
  // monotonically increasing time even across idle stretches. The
  // drain-everything sentinel used by run() is excluded: after run() the
  // clock rests at the last event's time.
  if (heap_.empty() && until > now_ && until < Time::micros(INT64_MAX))
    now_ = until;
  return ran;
}

std::uint64_t Simulator::run() {
  return run_until(Time::micros(INT64_MAX));
}

void Simulator::fire_chain(std::uint32_t index) {
  // The table never moves an entry, so `chain` stays valid while the tick
  // starts other chains.
  Chain& chain = chains_[index];
  if (chain.tick()) {
    schedule(chain.period, [this, index] { fire_chain(index); },
             chain.category);
    return;
  }
  chain.tick = nullptr;
  chains_.release(index);
}

void schedule_periodic(Simulator& simulator, Time period,
                       std::function<bool()> tick, const char* category) {
  assert(period > Time::zero());
  const std::uint32_t index = simulator.chains_.acquire();
  simulator.chains_[index] =
      Simulator::Chain{std::move(tick), period, category};
  simulator.schedule(
      period, [&simulator, index] { simulator.fire_chain(index); }, category);
}

std::string Time::to_string() const {
  char buf[32];
  if (us_ % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(us_ / 1'000'000));
  } else if (us_ % 1000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(us_ / 1000));
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(us_));
  }
  return buf;
}

}  // namespace ppsim::sim
