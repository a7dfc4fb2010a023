// ppsim_bench_run: one rep of one benchmark workload per process, so each
// rep's peak RSS is its own. run.py in this directory drives it (README.md).
//
//   ppsim_bench_run sim --channel popular|unpopular --viewers N
//       --duration-s S --ramp-s R --probe-join-s P --seed N
//       [--session-s S] [--rejoin-s G] [--traced] [--trace-out FILE]
//   ppsim_bench_run wire --trace-file FILE --port P --datagrams N
//       [--offset K] [--traced]
//
// `sim` times one core::run_experiment call with nothing attached, or with
// --traced runs it once under obs::RunProfiler + obs::ResourceProbe and
// then probes the layers on the sizes that run reached. `wire` replays a
// capture written by `sim --trace-out` through wire::UdpTransport, starting
// at message K of the capture.
//
// Prints one JSON object on stdout. Exits 1 when an output check fails,
// 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_set>

#include "capture/analyzer.h"
#include "capture/trace_io.h"
#include "core/experiment.h"
#include "net/asn_db.h"
#include "net/isp.h"
#include "obs/profiler.h"
#include "obs/resource_probe.h"
#include "suite.h"
#include "workload/scenario.h"

namespace {

using namespace ppsim;
using benchsuite::Clock;
using benchsuite::seconds_since;

using Flags = std::map<std::string, std::string>;

/// One flat JSON object, keys in insertion order; the runner's only output.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  JsonObject& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  // Keys and string values are plain ASCII without quotes or escapes.
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, '"' + v + '"');
  }
  JsonObject& obj(const std::string& k, const JsonObject& v) {
    return raw(k, v.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + k + "\":" + v;
    return *this;
  }
  std::string body_;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ppsim_bench_run: %s\n"
               "usage: ppsim_bench_run sim --channel popular|unpopular "
               "--viewers N --duration-s S --ramp-s R --probe-join-s P "
               "--seed N [--session-s S] [--rejoin-s G] [--traced] "
               "[--trace-out FILE]\n"
               "       ppsim_bench_run wire --trace-file FILE --port P "
               "--datagrams N [--offset K] [--traced]\n",
               why.c_str());
  std::exit(2);
}

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument " + arg);
    if (arg == "--traced") {
      flags["traced"] = "1";
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      usage("missing value for " + arg);
    }
  }
  return flags;
}

const std::string& need(const Flags& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) usage("missing --" + key);
  return it->second;
}

double number(const Flags& f, const std::string& key) {
  const std::string& text = need(f, key);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(v >= 0))
    usage("--" + key + " needs a non-negative number");
  return v;
}

sim::Time secs(double s) { return sim::Time::from_seconds(s); }

core::ExperimentConfig make_config(const Flags& f) {
  const std::string& channel = need(f, "channel");
  core::ExperimentConfig config;
  if (channel == "popular") {
    config.scenario = workload::popular_channel();
  } else if (channel == "unpopular") {
    config.scenario = workload::unpopular_channel();
  } else {
    usage("unknown --channel " + channel);
  }
  workload::ScenarioSpec& s = config.scenario;
  s.viewers = static_cast<int>(number(f, "viewers"));
  s.duration = secs(number(f, "duration-s"));
  s.arrival_ramp = secs(number(f, "ramp-s"));
  if (f.contains("session-s")) s.mean_session = secs(number(f, "session-s"));
  if (f.contains("rejoin-s")) s.mean_rejoin_gap = secs(number(f, "rejoin-s"));
  s.seed = std::strtoull(need(f, "seed").c_str(), nullptr, 10);
  config.probes = {core::tele_probe()};
  config.probe_join_at = secs(number(f, "probe-join-s"));
  config.keep_traces = f.contains("trace-out");
  return config;
}

/// FNV-1a over the run's deterministic outputs: the ISP traffic matrix,
/// every swarm-wide counter, and the event/packet/peer totals. Events the
/// instrument itself scheduled (`obs_events`, the resource probe's sampling
/// ticks) are not the program's output and are left out.
std::string digest(const core::ExperimentResult& r, std::uint64_t obs_events) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& row : r.traffic.bytes)
    for (const auto b : row) add(b);
  proto::for_each_field(r.counter_totals,
                        [&](const char*, const std::uint64_t& v) { add(v); });
  add(r.swarm.events_executed - obs_events);
  add(r.swarm.packets_delivered);
  add(r.swarm.packets_dropped);
  add(r.swarm.peers_spawned);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Output checks beyond determinism: the swarm streamed, and the network's
/// delivery tap (traffic matrix) agrees with what the peers counted. The
/// tap skips replies whose sender left while they were in flight, so the
/// matrix may fall short of the receivers' count, never exceed it.
std::string check(const core::ExperimentConfig& c,
                  const core::ExperimentResult& r) {
  const proto::PeerCounters& t = r.counter_totals;
  const std::uint64_t chunk = c.scenario.channel.chunk_bytes();
  if (r.swarm.events_executed == 0) return "no events executed";
  if (r.swarm.peers_spawned < static_cast<std::uint64_t>(c.scenario.viewers))
    return "fewer peers spawned than viewers";
  if (t.chunks_played == 0) return "no chunk played";
  if (r.traffic.total() % chunk != 0 ||
      r.traffic.total() > t.data_replies_received * chunk)
    return "traffic matrix disagrees with DataReplies peers received";
  if (t.bytes_downloaded !=
      (t.data_replies_received - t.duplicate_chunks) * chunk)
    return "bytes_downloaded != new chunks received";
  if (r.probes.size() != 1) return "probe missing from result";
  return "ok";
}

// Dispatch categories reported one by one; anything else the program
// schedules (outside obs.*, the instrument's own ticks) lands in "other",
// so the per-category events always sum to sim.events.
constexpr const char* kCategories[] = {
    "net.deliver",    "net.transit",     "peer.request",    "peer.buffermap",
    "peer.send",      "peer.playback",   "peer.sweep",      "peer.topup",
    "peer.optimize",  "peer.gossip",     "peer.join",       "peer.tracker",
    "tracker.serve",  "source.send",     "source.produce",  "source.announce",
    "source.tracker", "untagged",        "other"};

std::uint64_t obs_events(const obs::RunProfiler& profiler) {
  std::uint64_t n = 0;
  for (const auto& [name, cs] : profiler.categories())
    if (name.rfind("obs.", 0) == 0) n += cs.events;
  return n;
}

double peak_rss_mb() {
  return static_cast<double>(obs::ResourceProbe::peak_rss_bytes()) / 1048576.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

JsonObject sim_layers(const core::ExperimentResult& result,
                      const obs::RunProfiler& profiler,
                      const obs::ResourceProbe& resource, double traced_wall) {
  JsonObject out;
  struct Cat {
    std::uint64_t events = 0;
    double wall = 0;
  };
  std::map<std::string, Cat> cats;
  for (const char* name : kCategories) cats[name];
  std::uint64_t sim_events = 0;
  double dispatch_wall = 0;
  for (const auto& [name, cs] : profiler.categories()) {
    dispatch_wall += cs.wall_seconds;
    if (name.rfind("obs.", 0) == 0) continue;
    std::string key = name.empty() ? "untagged" : name;
    if (!cats.contains(key)) key = "other";
    cats[key].events += cs.events;
    cats[key].wall += cs.wall_seconds;
    sim_events += cs.events;
  }
  std::uint64_t queue_bytes = 0, live_bytes = 0, live_peers = 0;
  for (const auto& s : resource.samples()) {
    queue_bytes = std::max(queue_bytes, s.queue_bytes);
    live_bytes = std::max(live_bytes, s.live_peer_bytes);
    live_peers = std::max(live_peers, s.live_peers);
  }
  out.count("sim.events", sim_events)
      .count("sim.peak_queue_depth", profiler.max_queue_depth())
      .num("sim.loop_ns_per_event",
           (traced_wall - dispatch_wall) * 1e9 /
               static_cast<double>(profiler.events_total()))
      .num("sim.probe_ns_per_event",
           benchsuite::scheduler_probe_ns(profiler.max_queue_depth()))
      .count("sim.queue_bytes_peak", queue_bytes);
  for (const char* name : kCategories) {
    const Cat& c = cats[name];
    out.count(std::string(name) + ".events", c.events)
        .num(std::string(name) + ".ns_per_event",
             c.events == 0 ? 0.0
                           : c.wall * 1e9 / static_cast<double>(c.events));
  }
  const proto::PeerCounters& t = result.counter_totals;
  out.num("net.drop_frac",
          ratio(result.swarm.packets_dropped,
                result.swarm.packets_dropped + result.swarm.packets_delivered))
      .num("proto.connect_accept_frac",
           ratio(t.connects_accepted, t.connects_attempted))
      .num("proto.data_reply_frac",
           ratio(t.data_replies_received, t.data_requests_sent))
      .num("proto.request_timeout_frac",
           ratio(t.request_timeouts, t.data_requests_sent))
      .count("proto.peers_spawned", result.swarm.peers_spawned)
      .count("mem.live_peer_bytes_peak", live_bytes)
      .num("tracker.probe_query_us", benchsuite::tracker_probe_us(live_peers));

  // Capture analysis, timed on the probe's kept trace; tracker addresses
  // come from the trace itself, as the paper's analysis derived them.
  const capture::PacketTrace& trace = *result.probes[0].trace;
  std::unordered_set<net::IpAddress> trackers;
  for (const auto& rec : trace)
    if (rec.direction == net::Direction::kOutgoing &&
        std::holds_alternative<proto::TrackerQuery>(rec.payload))
      trackers.insert(rec.remote);
  const net::AsnDatabase asn_db =
      net::AsnDatabase::from_registry(net::IspRegistry::standard_topology());
  int passes = 0;
  const auto t0 = Clock::now();
  do {
    const capture::TraceAnalysis a = capture::analyze_trace(
        trace, asn_db, result.probes[0].ip, trackers);
    ++passes;
  } while (seconds_since(t0) < 0.2);
  out.num("capture.analyze_s", seconds_since(t0) / passes)
      .count("capture.records", trace.size());

  const benchsuite::CodecCost codec =
      benchsuite::codec_probe(benchsuite::replay_mix(trace));
  out.num("wire.encode_ns", codec.encode_ns)
      .num("wire.decode_ns", codec.decode_ns);
  return out;
}

int run_sim(const Flags& f) {
  core::ExperimentConfig config = make_config(f);
  const bool traced = f.contains("traced");
  JsonObject out;

  if (!traced) {
    // Set-up cost: the same world built and torn down with 1 us simulated.
    core::ExperimentConfig setup = config;
    setup.scenario.duration = sim::Time::micros(1);
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      core::run_experiment(setup);
      setups.push_back(seconds_since(t0));
    }
    out.num("setup_s", benchsuite::median(setups));
  }

  obs::RunProfiler profiler;
  obs::ResourceProbe resource(1 << 20);
  if (traced) {
    config.observability.profiler = &profiler;
    config.observability.resource = &resource;
    config.keep_traces = true;
  }
  const double cpu0 = benchsuite::cpu_seconds();
  const auto t0 = Clock::now();
  const core::ExperimentResult result = core::run_experiment(config);
  const double wall = seconds_since(t0);
  const double cpu = benchsuite::cpu_seconds() - cpu0;

  const std::string verdict = check(config, result);
  out.num("wall_s", wall)
      .num("cpu_s", cpu)
      .count("events", result.swarm.events_executed)
      .num("rss_peak_mb", peak_rss_mb())
      .str("digest", digest(result, obs_events(profiler)))
      .str("check", verdict);
  if (traced && verdict == "ok")
    out.obj("layers", sim_layers(result, profiler, resource, wall));
  if (f.contains("trace-out") &&
      !capture::write_trace_file(f.at("trace-out"), *result.probes[0].trace)) {
    std::fprintf(stderr, "cannot write %s\n", f.at("trace-out").c_str());
    return 1;
  }
  std::printf("%s\n", out.text().c_str());
  return verdict == "ok" ? 0 : 1;
}

int run_wire(const Flags& f) {
  const std::string& path = need(f, "trace-file");
  const auto trace = capture::read_trace_file(path);
  if (!trace) usage("cannot read " + path);
  const std::vector<proto::Message> mix = benchsuite::replay_mix(*trace);
  if (mix.empty()) usage(path + " holds no replayable message");
  benchsuite::ReplayOptions options;
  const double port = number(f, "port");
  if (port < 1 || port > 65535) usage("--port out of range");
  options.port = static_cast<std::uint16_t>(port);
  options.datagrams = static_cast<std::uint64_t>(number(f, "datagrams"));
  if (options.datagrams == 0 || options.datagrams > 0xFFFFFFFFULL)
    usage("--datagrams out of range");
  options.offset = f.contains("offset")
                       ? static_cast<std::uint64_t>(number(f, "offset"))
                       : 0;
  options.traced = f.contains("traced");

  const benchsuite::ReplayResult r = benchsuite::replay(mix, options);
  JsonObject out;
  out.num("setup_s", r.setup_s)
      .num("wall_s", r.wall_s)
      .num("cpu_s", r.cpu_s)
      .count("sent", r.sent)
      .count("matched", r.matched)
      .count("failed", r.failed)
      .num("rss_peak_mb", peak_rss_mb())
      .num("lat_p50_us", r.lat_p50_us)
      .num("lat_p99_us", r.lat_p99_us)
      .count("rx_queue_peak", r.rx_queue_peak)
      .count("rx_errors", r.rx_errors)
      .count("uplink_drops", r.uplink_drops)
      .count("downlink_drops", r.downlink_drops);
  if (options.traced)
    out.num("send_us", r.send_us)
        .num("poll_us_per_dgram", r.poll_us_per_dgram)
        .num("dispatch_us_per_dgram", r.dispatch_us_per_dgram)
        .num("dgrams_per_poll", r.dgrams_per_poll);
  std::printf("%s\n", out.text().c_str());
  return r.failed == 0 && r.rx_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  const Flags flags = parse_flags(argc, argv);
  if (command == "sim") return run_sim(flags);
  if (command == "wire") return run_wire(flags);
  usage("unknown command " + command);
}
