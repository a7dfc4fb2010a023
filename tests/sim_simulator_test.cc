#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/observer.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace ppsim::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(Time::seconds(3), [&] { order.push_back(3); });
  simulator.schedule(Time::seconds(1), [&] { order.push_back(1); });
  simulator.schedule(Time::seconds(2), [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    simulator.schedule(Time::seconds(1), [&order, i] { order.push_back(i); });
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator simulator;
  Time seen;
  simulator.schedule(Time::millis(1500), [&] { seen = simulator.now(); });
  simulator.run();
  EXPECT_EQ(seen, Time::millis(1500));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  bool ran = false;
  simulator.schedule(Time::seconds(1), [&] {
    simulator.schedule(Time::seconds(-5), [&] {
      ran = true;
      EXPECT_EQ(simulator.now(), Time::seconds(1));
    });
  });
  simulator.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonInclusive) {
  Simulator simulator;
  int count = 0;
  simulator.schedule(Time::seconds(1), [&] { ++count; });
  simulator.schedule(Time::seconds(2), [&] { ++count; });
  simulator.schedule(Time::seconds(3), [&] { ++count; });
  simulator.run_until(Time::seconds(2));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run_until(Time::seconds(10));
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, ClockAdvancesToHorizonWhenIdle) {
  Simulator simulator;
  simulator.run_until(Time::seconds(42));
  EXPECT_EQ(simulator.now(), Time::seconds(42));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.schedule(Time::millis(10), recurse);
  };
  simulator.schedule(Time::millis(10), recurse);
  simulator.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulator.now(), Time::millis(50));
}

TEST(SimulatorTest, SpanIdsOnlyUnderCausalTracing) {
  Simulator sim;
  EXPECT_EQ(sim.trace_sink(), nullptr);
  EXPECT_FALSE(sim.causal_tracing());
  EXPECT_EQ(sim.allocate_span_id(), 0u);  // no span, and no id consumed
  sim.set_tracing(nullptr, /*causal=*/true);
  EXPECT_TRUE(sim.causal_tracing());
  EXPECT_EQ(sim.allocate_span_id(), 1u);
  EXPECT_EQ(sim.allocate_span_id(), 2u);
  sim.set_tracing(nullptr, /*causal=*/false);
  EXPECT_EQ(sim.allocate_span_id(), 0u);
}

TEST(SimulatorTest, QueueBytesCountKeysAndSlotsBySize) {
  Simulator simulator;
  EXPECT_EQ(simulator.approx_queue_bytes(), 0u);
  simulator.schedule(Time::seconds(1), [] {});
  const std::size_t per_event = simulator.approx_queue_bytes();
  ASSERT_GT(per_event, 0u);
  simulator.schedule(Time::seconds(2), [] {});
  simulator.schedule(Time::seconds(3), [] {});
  // Three events, not the four a capacity-based count would see once the
  // containers grew past two.
  EXPECT_EQ(simulator.approx_queue_bytes(), 3 * per_event);
  simulator.run();
  // Drained: no keys are left, but the arena keeps its three slots...
  const std::size_t drained = simulator.approx_queue_bytes();
  EXPECT_GT(drained, 0u);
  EXPECT_LT(drained, 3 * per_event);
  // ...which the next three events reuse.
  for (int i = 0; i < 3; ++i) simulator.schedule(Time::seconds(1), [] {});
  EXPECT_EQ(simulator.approx_queue_bytes(), 3 * per_event);
}

TEST(SimulatorTest, RequestStopHaltsLoop) {
  Simulator simulator;
  int count = 0;
  simulator.schedule(Time::seconds(1), [&] {
    ++count;
    simulator.request_stop();
  });
  simulator.schedule(Time::seconds(2), [&] { ++count; });
  simulator.run();
  EXPECT_EQ(count, 1);
  // Stop only interrupts the current loop; a new run resumes.
  simulator.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, PeriodicUntilFalse) {
  Simulator simulator;
  int ticks = 0;
  schedule_periodic(simulator, Time::seconds(10), [&] {
    ++ticks;
    return ticks < 4;
  });
  simulator.run();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(simulator.now(), Time::seconds(40));
}

TEST(SimulatorTest, PeriodicStoppedByTickLeavesNoPendingEvents) {
  Simulator simulator;
  int ticks = 0;
  schedule_periodic(simulator, Time::seconds(1), [&] {
    ++ticks;
    return false;  // stop immediately after the first firing
  });
  simulator.run();
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, PeriodicTickMayStartAnotherChain) {
  // The second firing of chain A starts chain B; B stops itself after three
  // ticks while A runs on. Starting a chain from a tick must leave the
  // running chain intact, and a stopped chain's entry is reused by the next
  // chain started.
  Simulator simulator;
  std::vector<std::pair<char, Time>> fired;
  int a_ticks = 0;
  int b_ticks = 0;
  schedule_periodic(simulator, Time::seconds(10), [&] {
    fired.emplace_back('A', simulator.now());
    if (++a_ticks == 2) {
      schedule_periodic(simulator, Time::seconds(3), [&] {
        fired.emplace_back('B', simulator.now());
        return ++b_ticks < 3;
      });
    }
    return a_ticks < 5;
  });
  simulator.run_until(Time::seconds(30));
  // A at 10, 20, 30; B (started at 20) at 23, 26, 29 and then stopped.
  const std::vector<std::pair<char, Time>> want = {
      {'A', Time::seconds(10)}, {'A', Time::seconds(20)},
      {'B', Time::seconds(23)}, {'B', Time::seconds(26)},
      {'B', Time::seconds(29)}, {'A', Time::seconds(30)}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(simulator.pending_events(), 1u);  // only A's next firing

  // A chain started after B stopped runs as its own chain.
  int c_ticks = 0;
  schedule_periodic(simulator, Time::seconds(4), [&] { return ++c_ticks < 2; });
  simulator.run();
  EXPECT_EQ(a_ticks, 5);
  EXPECT_EQ(b_ticks, 3);
  EXPECT_EQ(c_ticks, 2);
  EXPECT_EQ(simulator.now(), Time::seconds(50));
}

TEST(SimulatorTest, DestroyingSimulatorDestroysPendingChains) {
  // A chain still pending when the simulator goes away is destroyed with
  // it: the tick's captured state is released, and it never runs again.
  auto token = std::make_shared<int>(0);
  {
    Simulator simulator;
    schedule_periodic(simulator, Time::seconds(1), [token] {
      ++*token;
      return true;
    });
    schedule_periodic(simulator, Time::seconds(2), [token] { return true; });
    simulator.run_until(Time::seconds(3));
    EXPECT_EQ(*token, 3);
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_EQ(simulator.pending_events(), 2u);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 3);
}

TEST(SimulatorTest, RequestStopMidQueueKeepsRemainderPending) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule(Time::seconds(1), [&] { order.push_back(1); });
  simulator.schedule(Time::seconds(1), [&] {
    order.push_back(2);
    simulator.request_stop();
  });
  simulator.schedule(Time::seconds(1), [&] { order.push_back(3); });
  simulator.schedule(Time::seconds(2), [&] { order.push_back(4); });
  simulator.run();
  // Stop takes effect after the current event; same-instant successors stay
  // queued in FIFO order for the next run.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorTest, RequestStopDuringPeriodicResumesCleanly) {
  Simulator simulator;
  int ticks = 0;
  schedule_periodic(simulator, Time::seconds(10), [&] {
    if (++ticks == 2) simulator.request_stop();
    return ticks < 5;
  });
  simulator.run();
  EXPECT_EQ(ticks, 2);
  simulator.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(simulator.now(), Time::seconds(50));
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator simulator;
  bool ran = false;
  simulator.schedule(Time::seconds(5), [&] {
    simulator.schedule_at(Time::seconds(1), [&] {
      ran = true;
      EXPECT_EQ(simulator.now(), Time::seconds(5));
    });
  });
  simulator.run();
  EXPECT_TRUE(ran);
}

// Records every observer hook invocation for assertions.
class RecordingObserver final : public SimObserver {
 public:
  struct Begin {
    Time now;
    std::uint64_t seq;
    std::string category;
    std::size_t queue_depth;
  };
  void on_event_begin(Time now, std::uint64_t seq, const char* category,
                      std::size_t queue_depth) override {
    begins.push_back(Begin{now, seq, category, queue_depth});
  }
  void on_event_end(Time now, const char* category) override {
    ends.push_back({now, category});
  }
  std::vector<Begin> begins;
  std::vector<std::pair<Time, std::string>> ends;
};

TEST(SimulatorObserver, SeesEveryEventWithItsCategory) {
  Simulator simulator;
  RecordingObserver obs;
  simulator.add_observer(&obs);
  simulator.schedule(Time::seconds(1), [] {}, "first");
  simulator.schedule(Time::seconds(2), [] {});  // untagged -> ""
  simulator.run();

  ASSERT_EQ(obs.begins.size(), 2u);
  ASSERT_EQ(obs.ends.size(), 2u);
  EXPECT_EQ(obs.begins[0].now, Time::seconds(1));
  EXPECT_EQ(obs.begins[0].category, "first");
  EXPECT_EQ(obs.begins[1].category, "");
  EXPECT_EQ(obs.ends[0].second, "first");
  // Begin/end pair on the same event: same category, same timestamp.
  EXPECT_EQ(obs.ends[0].first, obs.begins[0].now);
  // Sequence numbers reflect scheduling order.
  EXPECT_LT(obs.begins[0].seq, obs.begins[1].seq);
}

TEST(SimulatorObserver, QueueDepthExcludesTheFiringEvent) {
  Simulator simulator;
  RecordingObserver obs;
  simulator.add_observer(&obs);
  simulator.schedule(Time::seconds(1), [] {}, "a");
  simulator.schedule(Time::seconds(2), [] {}, "b");
  simulator.schedule(Time::seconds(3), [] {}, "c");
  simulator.run();
  ASSERT_EQ(obs.begins.size(), 3u);
  EXPECT_EQ(obs.begins[0].queue_depth, 2u);
  EXPECT_EQ(obs.begins[1].queue_depth, 1u);
  EXPECT_EQ(obs.begins[2].queue_depth, 0u);
}

TEST(SimulatorObserver, RemoveObserverStopsDelivery) {
  Simulator simulator;
  RecordingObserver obs;
  simulator.add_observer(&obs);
  simulator.schedule(Time::seconds(1), [] {}, "seen");
  simulator.run();
  simulator.remove_observer(&obs);
  simulator.schedule(Time::seconds(1), [] {}, "unseen");
  simulator.run();
  ASSERT_EQ(obs.begins.size(), 1u);
  EXPECT_EQ(obs.begins[0].category, "seen");
}

TEST(SimulatorObserver, MultipleObserversAllNotified) {
  Simulator simulator;
  RecordingObserver a, b;
  simulator.add_observer(&a);
  simulator.add_observer(&b);
  simulator.schedule(Time::seconds(1), [] {}, "x");
  simulator.run();
  EXPECT_EQ(a.begins.size(), 1u);
  EXPECT_EQ(b.begins.size(), 1u);
}

TEST(SimulatorTest, PeriodicCarriesItsCategoryToObservers) {
  Simulator simulator;
  RecordingObserver obs;
  simulator.add_observer(&obs);
  int ticks = 0;
  schedule_periodic(
      simulator, Time::seconds(5),
      [&] {
        ++ticks;
        return ticks < 3;
      },
      "tick.cat");
  simulator.run();
  ASSERT_EQ(obs.begins.size(), 3u);
  for (const auto& b : obs.begins) EXPECT_EQ(b.category, "tick.cat");
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator simulator;
  Time last = Time::zero();
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    // Pseudo-scattered times.
    const Time when = Time::micros((i * 7919) % 100000);
    simulator.schedule_at(when, [&, when] {
      if (simulator.now() < last) monotonic = false;
      last = simulator.now();
    });
  }
  simulator.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(simulator.events_executed(), 10000u);
}

TEST(SimulatorTest, MatchesSortedReferenceOnRandomWorkload) {
  // A seeded workload of kCap events: each callback schedules 0-2
  // successors through schedule() or schedule_at(), at zero (same-instant),
  // negative or short positive delays (so many events share an instant),
  // and the run advances in random slices. Periodic chains run alongside,
  // started at the outset and by one event in sixteen; each firing may
  // spawn a successor before its re-arm. The reference is every scheduled
  // event sorted by (when, insertion order); its counts are kept here,
  // outside the simulator's arena. A re-arm is recorded at the end of its
  // tick, after the tick's own spawns, because the simulator takes the
  // re-arm's sequence number after the tick returns.
  constexpr std::size_t kCap = 20000;
  Simulator simulator;
  Rng rng(20081012);
  std::vector<std::pair<Time, std::size_t>> scheduled;  // (when, order)
  std::vector<std::size_t> executed;
  std::size_t peak = 0;  // most events scheduled but not yet started
  const auto record = [&](Time when) {
    scheduled.emplace_back(when, scheduled.size());
    peak = std::max(peak, scheduled.size() - executed.size());
    return scheduled.size() - 1;
  };

  std::function<void(Time)> spawn;
  const auto start_chain = [&] {
    const Time period = Time::micros(rng.uniform_int(1, 40));
    std::size_t order = record(simulator.now() + period);
    std::int64_t ticks_left = rng.uniform_int(1, 8);
    schedule_periodic(simulator, period, [&, order, period,
                                          ticks_left]() mutable {
      executed.push_back(order);
      if (rng.chance(0.5) && scheduled.size() < kCap)
        spawn(Time::micros(rng.uniform_int(0, 40)));
      if (--ticks_left == 0 || scheduled.size() >= kCap) return false;
      order = record(simulator.now() + period);
      return true;
    });
  };

  spawn = [&](Time delay) {
    const Time now = simulator.now();
    const std::size_t order = record(std::max(now, now + delay));
    auto fire = [&, order] {
      executed.push_back(order);
      const std::uint64_t roll = rng.next_below(4);  // 0, 1, 2, 2
      const std::uint64_t successors = roll == 3 ? 2 : roll;
      for (std::uint64_t i = 0; i < successors && scheduled.size() < kCap;
           ++i) {
        switch (rng.next_below(4)) {
          case 0: spawn(Time::zero()); break;
          case 1: spawn(Time::micros(rng.uniform_int(-30, -1))); break;
          default: spawn(Time::micros(rng.uniform_int(1, 40)));
        }
      }
      if (rng.next_below(16) == 0 && scheduled.size() < kCap) start_chain();
    };
    if (rng.chance(0.5)) {
      simulator.schedule(delay, fire);
    } else {
      simulator.schedule_at(now + delay, fire);
    }
  };
  for (int i = 0; i < 64; ++i) spawn(Time::micros(rng.uniform_int(0, 50)));
  for (int i = 0; i < 16; ++i) start_chain();

  while (simulator.pending_events() > 0) {
    simulator.run_until(simulator.now() + Time::micros(rng.uniform_int(0, 60)));
    ASSERT_EQ(simulator.pending_events(), scheduled.size() - executed.size());
  }

  ASSERT_EQ(scheduled.size(), kCap);
  std::sort(scheduled.begin(), scheduled.end());
  std::vector<std::size_t> expected;
  for (const auto& [when, order] : scheduled) expected.push_back(order);
  EXPECT_EQ(executed, expected);
  EXPECT_EQ(simulator.events_executed(), kCap);
  EXPECT_EQ(simulator.peak_pending_events(), peak);
  // Freed slots are reused: the arena stays well under the run's size.
  EXPECT_LT(peak, kCap / 2);
}

}  // namespace
}  // namespace ppsim::sim
