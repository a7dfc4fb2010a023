#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <utility>

#include "sim/observer.h"
#include "sim/time.h"

namespace ppsim::sim {

TimerHandle Simulator::schedule_at(Time when, Callback cb,
                                   const char* category) {
  assert(cb);
  if (when < now_) when = now_;
  if (when > latest_scheduled_) latest_scheduled_ = when;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.category = category;
  s.seq = seq;
  queue_.push(Key{when, seq, slot});
  return TimerHandle{slot, seq};
}

Simulator::Callback Simulator::take(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  free_slots_.push_back(slot);
  return std::exchange(s.cb, nullptr);
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

bool Simulator::cancel(TimerHandle h) {
  // Once the handle's event fired or was cancelled, its slot is free
  // (seq 0) or holds a later event, so the sequence no longer matches.
  if (!h.valid() || h.slot_ >= slots_.size() ||
      slots_[h.slot_].seq != h.seq_)
    return false;
  take(h.slot_);
  return true;
}

std::uint64_t Simulator::run_until(Time until) {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    const Key key = queue_.top();
    if (key.when > until) break;
    queue_.pop();
    if (slots_[key.slot].seq != key.seq) continue;  // cancelled
    const char* category = slots_[key.slot].category;
    // Free the slot before running so the callback may schedule and cancel.
    const Callback cb = take(key.slot);
    now_ = key.when;
    if (observers_.empty()) {
      cb();
    } else {
      const char* label = category == nullptr ? "" : category;
      const std::size_t depth = queue_.size();
      for (SimObserver* obs : observers_)
        obs->on_event_begin(now_, key.seq, label, depth);
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
  if (queue_.empty() && until > now_ && until < Time::micros(INT64_MAX))
    now_ = until;
  return ran;
}

std::uint64_t Simulator::run() {
  return run_until(Time::micros(INT64_MAX));
}

TimerHandle schedule_periodic(Simulator& simulator, Time period,
                              std::function<bool()> tick,
                              const char* category) {
  assert(period > Time::zero());
  // Self-rescheduling chain; stops when tick() returns false. Ownership is
  // one-directional: each pending event's callback holds the shared state,
  // and the state holds nothing that refers back to the callback. When a
  // tick declines to re-arm (or the event is cancelled, or the simulator is
  // destroyed with the event still queued), the callback's destruction
  // releases the last reference and the state is freed — a closure that
  // captured its own shared_ptr would instead form a cycle and leak.
  struct State {
    Simulator* sim;
    Time period;
    std::function<bool()> tick;
    const char* category;
    static TimerHandle arm(const std::shared_ptr<State>& state) {
      return state->sim->schedule(
          state->period,
          [state] {
            if (state->tick()) arm(state);
          },
          state->category);
    }
  };
  return State::arm(std::make_shared<State>(
      State{&simulator, period, std::move(tick), category}));
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
