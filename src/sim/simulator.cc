#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "sim/observer.h"
#include "sim/time.h"

namespace ppsim::sim {

void Simulator::schedule_at(Time when, Callback cb, const char* category) {
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
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.category = category;
  queue_.push(Key{when, next_seq_++, slot});
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
  while (!queue_.empty() && !stop_requested_) {
    const Key key = queue_.top();
    if (key.when > until) break;
    queue_.pop();
    Slot& slot = slots_[key.slot];
    const char* category = slot.category;
    // Free the slot before running so the callback may schedule into it.
    const Callback cb = std::exchange(slot.cb, nullptr);
    free_slots_.push_back(key.slot);
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

namespace {

/// One periodic chain. The closure is the chain's only state: each firing
/// runs the tick and, if it returns true, moves the closure into the next
/// event, so the re-arm takes its sequence number after the tick has run.
/// When a tick declines to re-arm, or the simulator is destroyed with the
/// event still queued, the chain goes with its callback.
struct Periodic {
  Simulator* sim;
  Time period;
  std::function<bool()> tick;
  const char* category;

  void operator()() {
    // Moving leaves the trivially copyable members as they were, so the
    // order in which the arguments are read does not matter.
    if (tick()) sim->schedule(period, std::move(*this), category);
  }
};

}  // namespace

void schedule_periodic(Simulator& simulator, Time period,
                       std::function<bool()> tick, const char* category) {
  assert(period > Time::zero());
  simulator.schedule(period,
                     Periodic{&simulator, period, std::move(tick), category},
                     category);
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
