// Micro-benchmarks of the library's hot paths (google-benchmark): the
// event queue, the ASN longest-prefix-match trie, the latency model, and
// the distribution fitters. These bound the simulator's throughput and the
// analysis cost per capture.
//
// Besides google-benchmark's own flags, `--bench-json FILE` writes the
// non-aggregate results as machine-readable telemetry (schema
// "ppsim-bench-v1", docs/OBSERVABILITY.md): name, iterations, ns/op, and —
// for scheduler-shaped benches — the peak simulator queue depth, measured
// by an untimed replay so the timed loop stays observer-free.

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "analysis/fit.h"
#include "figures_common.h"
#include "net/asn_db.h"
#include "net/impairment.h"
#include "net/latency.h"
#include "net/prefix_alloc.h"
#include "net/transport.h"
#include "obs/bench_json.h"
#include "obs/health.h"
#include "obs/profiler.h"
#include "obs/resource_probe.h"
#include "obs/span_tracker.h"
#include "proto/message.h"
#include "sim/observer.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "wire/codec.h"

namespace {

using namespace ppsim;

// Runs `build` once against a fresh simulator with an untimed RunProfiler
// attached and reports the peak pending-queue depth. Used after the timed
// loop (google-benchmark user counter) so the measured iterations never pay
// for the observer.
double replay_peak_queue_depth(
    const std::function<void(sim::Simulator&)>& build) {
  sim::Simulator simulator;
  obs::RunProfiler profiler(/*timed=*/false);
  simulator.add_observer(&profiler);
  build(simulator);
  simulator.run();
  return static_cast<double>(profiler.max_queue_depth());
}

void schedule_spread(sim::Simulator& simulator, int n, const char* category) {
  for (int i = 0; i < n; ++i) {
    simulator.schedule(sim::Time::micros((i * 7919) % 100000), [] {},
                       category);
  }
}

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    schedule_spread(simulator, n, nullptr);
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["peak_queue_depth"] = replay_peak_queue_depth(
      [n](sim::Simulator& s) { schedule_spread(s, n, nullptr); });
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int remaining = 100000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) simulator.schedule(sim::Time::micros(10), tick);
    };
    simulator.schedule(sim::Time::micros(10), tick);
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 100000);
  state.counters["peak_queue_depth"] = 1;  // chain: one pending event ever
}
BENCHMARK(BM_SimulatorSelfScheduling);

// Same loop as BM_SimulatorScheduleRun but with category-tagged events and
// no observer attached: the disabled-observability baseline. CI's bench
// guard compares this against the untagged variant — the two must be within
// noise of each other, because a disabled trace costs one pointer copy per
// schedule and one empty() check per event.
void BM_SimulatorScheduleRunCategorized(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    schedule_spread(simulator, n, "bench.cat");
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["peak_queue_depth"] = replay_peak_queue_depth(
      [n](sim::Simulator& s) { schedule_spread(s, n, "bench.cat"); });
}
BENCHMARK(BM_SimulatorScheduleRunCategorized)->Arg(1000)->Arg(100000);

// Upper bound of the enabled-observer cost: a do-nothing observer still
// pays both virtual hooks per event.
void BM_SimulatorScheduleRunObserved(benchmark::State& state) {
  class NoopObserver final : public sim::SimObserver {
   public:
    void on_event_begin(sim::Time, std::uint64_t, const char*,
                        std::size_t) override {}
  };
  const int n = static_cast<int>(state.range(0));
  NoopObserver observer;
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.add_observer(&observer);
    schedule_spread(simulator, n, "bench.cat");
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["peak_queue_depth"] = replay_peak_queue_depth(
      [n](sim::Simulator& s) { schedule_spread(s, n, "bench.cat"); });
}
BENCHMARK(BM_SimulatorScheduleRunObserved)->Arg(100000);

// The tagged workload with an idle HealthMonitor ticking on the standard
// "obs.sample" cadence: the steady state of every watchdog-monitored run.
// Healthy inputs mean no transitions and no trace/metric writes, so the
// whole cost is ten rule evaluations per simulated sample period. CI's
// bench guard compares this against BM_SimulatorScheduleRunCategorized —
// the two must stay within noise.
void BM_SimulatorScheduleRunIdleHealthMonitor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto rules = obs::default_health_rules();
  // Workload events land in [0, 100ms); sample every 10ms. The tick must
  // stop itself past the horizon or Simulator::run() would never drain.
  const auto horizon = sim::Time::micros(100000);
  auto arm = [&](sim::Simulator& simulator, obs::HealthMonitor& monitor) {
    schedule_spread(simulator, n, "bench.cat");
    sim::schedule_periodic(
        simulator, sim::Time::micros(10000),
        [&simulator, &monitor, horizon] {
          if (simulator.now() >= horizon) return false;
          obs::HealthInput input;
          input.t = simulator.now();
          input.avg_continuity = 0.99;
          input.same_isp_share_interval = 0.8;
          input.interval_bytes = 1 << 20;
          input.alive_peers = 100;
          input.isolated_peers = 0;
          input.queue_depth = simulator.pending_events();
          monitor.evaluate(input);
          return true;
        },
        "obs.sample");
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    obs::HealthMonitor monitor(rules);
    arm(simulator, monitor);
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
  // The monitor must outlive replay_peak_queue_depth's run() call — the
  // periodic tick holds a reference to it.
  obs::HealthMonitor replay_monitor(rules);
  state.counters["peak_queue_depth"] = replay_peak_queue_depth(
      [&](sim::Simulator& s) { arm(s, replay_monitor); });
}
BENCHMARK(BM_SimulatorScheduleRunIdleHealthMonitor)->Arg(100000);

// The tagged workload with a SpanTracker fed one non-milestone, span-free
// trace event per "obs.sample" tick: the steady state of a causal-traced
// run between protocol bursts. Such events fall straight through the
// milestone dispatch without growing any tracker state, so the whole cost
// is the name comparison chain. CI's bench guard compares this against
// BM_SimulatorScheduleRunCategorized — the two must stay within noise.
void BM_SimulatorScheduleRunIdleSpanTracker(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto horizon = sim::Time::micros(100000);
  auto arm = [&](sim::Simulator& simulator, obs::SpanTracker& tracker) {
    schedule_spread(simulator, n, "bench.cat");
    sim::schedule_periodic(
        simulator, sim::Time::micros(10000),
        [&simulator, &tracker, horizon] {
          if (simulator.now() >= horizon) return false;
          tracker.write(obs::TraceEvent(simulator.now(), "bench.tick")
                            .field("peer", "10.0.0.1"));
          return true;
        },
        "obs.sample");
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    obs::SpanTracker tracker;
    arm(simulator, tracker);
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
  // The tracker must outlive replay_peak_queue_depth's run() call — the
  // periodic tick holds a reference to it.
  obs::SpanTracker replay_tracker;
  state.counters["peak_queue_depth"] = replay_peak_queue_depth(
      [&](sim::Simulator& s) { arm(s, replay_tracker); });
}
BENCHMARK(BM_SimulatorScheduleRunIdleSpanTracker)->Arg(100000);

// The tagged workload with a ResourceProbe sampling on the standard
// "obs.sample" cadence: the steady state of a scale-observatory run. Each
// tick reads /proc/self/status once and folds the scheduler gauges, so the
// whole cost is one small file read per simulated sample period — never
// per event. CI's bench guard compares this against
// BM_SimulatorScheduleRunCategorized — the two must stay within noise.
void BM_SimulatorScheduleRunIdleResourceProbe(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto horizon = sim::Time::micros(100000);
  auto arm = [&](sim::Simulator& simulator, obs::ResourceProbe& probe) {
    schedule_spread(simulator, n, "bench.cat");
    sim::schedule_periodic(
        simulator, sim::Time::micros(10000),
        [&simulator, &probe, horizon] {
          if (simulator.now() >= horizon) return false;
          obs::ResourceProbe::Inputs input;
          input.now = simulator.now();
          input.queue_depth = simulator.pending_events();
          input.event_horizon = sim::Time::micros(10000);
          input.events_executed = simulator.events_executed();
          input.queue_bytes = simulator.pending_events() * 64;
          input.live_peers = 100;
          input.live_peer_bytes = 1 << 20;
          probe.sample(input);
          return true;
        },
        "obs.sample");
  };
  for (auto _ : state) {
    sim::Simulator simulator;
    obs::ResourceProbe probe;
    arm(simulator, probe);
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
  // The probe must outlive replay_peak_queue_depth's run() call — the
  // periodic tick holds a reference to it.
  obs::ResourceProbe replay_probe;
  state.counters["peak_queue_depth"] = replay_peak_queue_depth(
      [&](sim::Simulator& s) { arm(s, replay_probe); });
}
BENCHMARK(BM_SimulatorScheduleRunIdleResourceProbe)->Arg(100000);

// Transport send+deliver throughput with no impairment overlay installed:
// the baseline every fault-free experiment runs at.
void transport_send_loop(benchmark::State& state,
                         const net::ImpairmentOverlay* overlay) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Network<int> network(simulator, net::LatencyModel{}, sim::Rng(42));
    network.set_impairments(overlay);
    network.attach(net::IpAddress(1, 0, 0, 1), net::IspId{0},
                   net::IspCategory::kTele, net::AccessProfile{1e9, 1e9},
                   [](const net::Network<int>::Delivery&) {});
    network.attach(net::IpAddress(1, 0, 0, 2), net::IspId{0},
                   net::IspCategory::kTele, net::AccessProfile{1e9, 1e9},
                   [](const net::Network<int>::Delivery&) {});
    for (int i = 0; i < n; ++i) {
      network.send(net::IpAddress(1, 0, 0, 1), net::IpAddress(1, 0, 0, 2), i,
                   200);
    }
    benchmark::DoNotOptimize(simulator.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_TransportSend(benchmark::State& state) {
  transport_send_loop(state, nullptr);
}
BENCHMARK(BM_TransportSend)->Arg(10000);

// Same loop with an installed-but-inactive overlay: the state every run
// with a fault plan spends outside its windows, and the worst case of a
// fault-capable build running fault-free. CI's bench guard compares this
// against BM_TransportSend — the two must stay within noise, because an
// inactive overlay costs one pointer test plus one bool load per send.
void BM_TransportSendIdleOverlay(benchmark::State& state) {
  net::ImpairmentOverlay overlay;  // no windows applied: active() == false
  transport_send_loop(state, &overlay);
}
BENCHMARK(BM_TransportSendIdleOverlay)->Arg(10000);

void BM_AsnLookup(benchmark::State& state) {
  auto registry = net::IspRegistry::standard_topology();
  auto db = net::AsnDatabase::from_registry(registry);
  net::PrefixAllocator alloc(registry);
  std::vector<net::IpAddress> ips;
  for (const auto& isp : registry.all())
    for (int i = 0; i < 100; ++i) ips.push_back(alloc.allocate(isp.id));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.lookup(ips[i++ % ips.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsnLookup);

void BM_LatencySample(benchmark::State& state) {
  net::LatencyModel model;
  sim::Rng rng(1);
  net::Endpoint a{net::IpAddress(0x3D800001), net::IspId{0},
                  net::IspCategory::kTele};
  net::Endpoint b{net::IpAddress(0x14000001), net::IspId{1},
                  net::IspCategory::kCnc};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample_one_way(a, b, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencySample);

void BM_StretchedExpFit(benchmark::State& state) {
  auto series = analysis::stretched_exponential_series(
      static_cast<std::size_t>(state.range(0)), 0.35, 5.483);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::fit_stretched_exponential(series));
  }
}
BENCHMARK(BM_StretchedExpFit)->Arg(326)->Arg(5000);

// ppsim-wire-v1 codec round-trip (docs/WIRE.md): encode + decode of a
// representative message per arg — 0: a small control packet (JoinReply),
// 1: a 120-chunk BufferMapAnnounce (the steady-state gossip load), 2: a
// default-chunk DataReply (the payload path). Bounds the per-datagram CPU
// cost a ppsim-node pays on top of the kernel's socket work.
void BM_WireEncodeDecode(benchmark::State& state) {
  proto::Message m;
  switch (state.range(0)) {
    case 0: {
      proto::JoinReply jr;
      jr.channel = 1;
      jr.source = net::IpAddress(127, 1, 0, 3);
      jr.trackers = {net::IpAddress(127, 1, 0, 2)};
      m = jr;
      break;
    }
    case 1: {
      proto::BufferMapAnnounce bma;
      bma.channel = 1;
      bma.map.base = 1000;
      for (int i = 0; i < 120; ++i) bma.map.have.push_back(i % 3 != 0);
      m = bma;
      break;
    }
    default: {
      proto::DataReply dr;
      dr.channel = 1;
      dr.chunk = 1000;
      dr.subpieces = 4;
      dr.payload_bytes = 5520;
      m = dr;
      break;
    }
  }
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    wire::encode_message(m, /*epoch=*/1, &buf);
    auto decoded = wire::decode_message(buf.data(), buf.size(), /*epoch=*/1);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_WireEncodeDecode)->Arg(0)->Arg(1)->Arg(2);

void BM_RngFork(benchmark::State& state) {
  sim::Rng rng(7);
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto child = rng.fork(i++);
    benchmark::DoNotOptimize(child.next_u64());
  }
}
BENCHMARK(BM_RngFork);

// Console reporter that additionally collects every non-aggregate run as a
// BenchEntry, so `--bench-json` gets exactly what the console showed.
class JsonCollector final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      obs::BenchEntry entry;
      entry.name = run.benchmark_name();
      entry.iterations = static_cast<std::uint64_t>(run.iterations);
      entry.ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9
              : 0.0;
      if (const auto it = run.counters.find("peak_queue_depth");
          it != run.counters.end()) {
        entry.peak_queue_depth =
            static_cast<std::uint64_t>(it->second.value);
      }
      entries_.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

  std::vector<obs::BenchEntry> take() { return std::move(entries_); }

 private:
  std::vector<obs::BenchEntry> entries_;
};

}  // namespace

// BENCHMARK_MAIN with one extension: `--bench-json FILE` (filtered out of
// argv before google-benchmark sees it) writes the collected entries via
// the shared bench::emit_bench_json. Without the flag, behaviour — including
// --benchmark_format=json, which a custom reporter would override — is
// exactly stock.
int main(int argc, char** argv) {
  std::string bench_json;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      bench_json = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  if (bench_json.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonCollector collector;
    benchmark::RunSpecifiedBenchmarks(&collector);
    if (!ppsim::bench::emit_bench_json(bench_json, collector.take()))
      return 1;
  }
  benchmark::Shutdown();
  return 0;
}
