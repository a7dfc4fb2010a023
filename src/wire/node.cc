#include "wire/node.h"

#include <cassert>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/asn_db.h"
#include "obs/metrics.h"
#include "obs/resource_probe.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "proto/bootstrap.h"
#include "proto/peer.h"
#include "proto/source.h"
#include "proto/tracker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "wire/clock.h"
#include "wire/telemetry.h"

namespace ppsim::wire {

namespace {

/// A node's HostIdentity, attributed via the loopback ASN database. The
/// access profile is informational on the wire (the kernel enforces real
/// capacity); the default profile keeps the field well-formed.
proto::HostIdentity loopback_identity(const net::IspRegistry& registry,
                                      const net::AsnDatabase& db,
                                      net::IpAddress ip) {
  const net::IspCategory category = db.category_or_foreign(ip);
  const auto ids = registry.in_category(category);
  assert(!ids.empty());
  return proto::HostIdentity{ip, ids.front(), category,
                             net::AccessProfile{}};
}

const char* role_name(NodeRole role) {
  switch (role) {
    case NodeRole::kHub: return "hub";
    case NodeRole::kSource: return "source";
    case NodeRole::kPeer: return "peer";
  }
  return "?";
}

}  // namespace

net::IspRegistry loopback_registry() {
  net::IspRegistry registry;
  struct Block {
    const char* name;
    std::uint32_t asn;
    net::IspCategory category;
    std::uint8_t second_octet;
  };
  // ASNs echo the standard topology's backbone numbers so analysis output
  // reads the same in sim and wire runs.
  const Block blocks[] = {
      {"LOOP-TELE", 4134, net::IspCategory::kTele, 1},
      {"LOOP-CNC", 4837, net::IspCategory::kCnc, 2},
      {"LOOP-CER", 4538, net::IspCategory::kCer, 3},
      {"LOOP-OTHER-CN", 9394, net::IspCategory::kOtherCn, 4},
      {"LOOP-FOREIGN", 701, net::IspCategory::kForeign, 5},
  };
  for (const auto& b : blocks) {
    const net::IspId id = registry.add(b.name, b.asn, b.category);
    registry.add_prefix(
        id, net::Prefix(net::IpAddress(127, b.second_octet, 0, 0), 16));
  }
  return registry;
}

NodeReport run_node(const NodeConfig& config,
                    const std::function<bool()>& stop) {
  const net::IspRegistry registry = loopback_registry();
  const net::AsnDatabase db = net::AsnDatabase::from_registry(registry);

  sim::Simulator simulator;
  UdpTransport::Config transport_config;
  transport_config.port = config.port;
  transport_config.epoch = config.epoch;
  UdpTransport transport(transport_config);
  sim::Rng rng(config.seed);

  // --- observability sinks (all optional, mirroring the sim CLI) ---
  std::ofstream trace_os;
  std::unique_ptr<obs::NdjsonTraceSink> trace_sink;
  if (!config.trace_out.empty()) {
    trace_os.open(config.trace_out);
    trace_sink = std::make_unique<obs::NdjsonTraceSink>(trace_os);
  }
  // The registry is filled when read: update_metrics() below converges it
  // onto the transport/protocol state whenever a telemetry snapshot or the
  // final sink write needs it, so the rows a snapshot ships are the rows
  // the sink file ends up holding — the byte-identity the collector relies
  // on.
  obs::MetricsRegistry metrics;
  obs::ResourceProbe probe;
  obs::TrafficSampler sampler;
  obs::IspMatrix traffic{};
  const auto delivered_locality = [&] {
    const std::uint64_t total = obs::matrix_total(traffic);
    return total == 0 ? 0.0
                      : static_cast<double>(obs::matrix_intra_isp(traffic)) /
                            static_cast<double>(total);
  };

  const net::IspCategory own_category = db.category_or_foreign(config.ip);
  transport.set_delivery_tap([&](const UdpTransport::Delivery& d) {
    if (const auto* dr = std::get_if<proto::DataReply>(&d.payload)) {
      const auto src = static_cast<std::size_t>(db.category_or_foreign(d.from));
      const auto dst = static_cast<std::size_t>(db.category_or_foreign(d.to));
      traffic[src][dst] += dr->payload_bytes;
    }
  });

  // --- the entity this process hosts (traced without causal spans) ---
  simulator.set_tracing(trace_sink.get(), /*causal=*/false);
  std::unique_ptr<proto::BootstrapServer> bootstrap;
  std::unique_ptr<proto::TrackerServer> tracker;
  std::unique_ptr<proto::StreamSource> source;
  std::unique_ptr<proto::Peer> peer;
  switch (config.role) {
    case NodeRole::kHub: {
      bootstrap = std::make_unique<proto::BootstrapServer>(
          simulator, transport,
          loopback_identity(registry, db, config.bootstrap));
      tracker = std::make_unique<proto::TrackerServer>(
          simulator, transport,
          loopback_identity(registry, db, config.tracker), rng.fork(1));
      proto::BootstrapServer::ChannelEntry entry;
      entry.channel = config.channel.id;
      entry.source = config.source;
      entry.tracker_groups = {{config.tracker}};
      bootstrap->register_channel(std::move(entry));
      break;
    }
    case NodeRole::kSource: {
      source = std::make_unique<proto::StreamSource>(
          simulator, transport, loopback_identity(registry, db, config.ip),
          config.channel, std::vector<net::IpAddress>{config.tracker});
      source->start();
      break;
    }
    case NodeRole::kPeer: {
      peer = std::make_unique<proto::Peer>(
          simulator, transport, loopback_identity(registry, db, config.ip),
          config.channel, config.bootstrap, rng.fork(3));
      peer->join();
      break;
    }
  }

  // --- metrics: converge the registry onto the current state ---
  const auto update_metrics = [&](sim::Time wall) {
    const auto& ts = transport.stats();
    metrics.counter("wire_packets_sent").raise_to(ts.packets_sent);
    metrics.counter("wire_packets_delivered").raise_to(ts.packets_delivered);
    metrics.counter("wire_bytes_sent").raise_to(ts.bytes_sent);
    metrics.counter("wire_uplink_drops").raise_to(ts.uplink_drops);
    metrics.counter("wire_downlink_drops").raise_to(ts.downlink_drops);
    metrics.counter("wire_dead_destination_drops")
        .raise_to(ts.dead_destination_drops);
    const auto& rx = transport.rx_errors();
    metrics.counter("wire_rx_errors").raise_to(rx.total());
    for_each_rx_error(rx, [&](std::string_view bucket, std::uint64_t v) {
      metrics.counter("wire_rx_errors", {{"bucket", std::string(bucket)}})
          .raise_to(v);
    });
    if (peer != nullptr) {
      const proto::PeerCounters counters = peer->counters();
      proto::for_each_field(
          counters, [&](const char* name, const std::uint64_t& v) {
            metrics.counter(std::string("peer_") + name).raise_to(v);
          });
      metrics.gauge("continuity").set(counters.continuity());
    }
    metrics.gauge("delivered_locality").set(delivered_locality());
    obs::ResourceProbe::Inputs in;
    in.now = simulator.now();
    in.queue_depth = simulator.pending_events();
    in.event_horizon = simulator.latest_scheduled() - simulator.now();
    in.events_executed = simulator.events_executed();
    in.queue_bytes = simulator.approx_queue_bytes();
    if (peer != nullptr && peer->alive()) {
      in.live_peers = 1;
      in.live_peer_bytes = peer->approx_live_bytes();
    }
    in.wall_seconds = wall.as_seconds();
    probe.sample(in);
    probe.export_metrics(metrics);
  };

  // --- the telemetry plane (optional; docs/OBSERVABILITY.md) ---
  std::unique_ptr<TelemetryClient> telemetry;
  if (!config.telemetry_to.empty()) {
    net::IpAddress collect_ip;
    std::uint16_t collect_port = 0;
    if (parse_host_port(config.telemetry_to, &collect_ip, &collect_port))
      telemetry = std::make_unique<TelemetryClient>(collect_ip, collect_port);
  }
  obs::MetricsDeltaTracker delta_tracker;
  std::uint64_t telemetry_next_seq = 0;
  std::size_t samples_shipped = 0;
  const auto ship_telemetry = [&](sim::Time wall, bool closing) {
    if (telemetry == nullptr) return;
    update_metrics(wall);
    const std::vector<std::string> metric_rows =
        closing ? delta_tracker.collect_full(metrics)
                : delta_tracker.collect(metrics);
    if (closing) samples_shipped = 0;  // full snapshot: re-ship every sample
    std::vector<std::string> sample_rows;
    const auto& samples = sampler.samples();
    for (std::size_t i = samples_shipped; i < samples.size(); ++i) {
      std::ostringstream row_os;
      obs::write_sample_ndjson(row_os, samples[i]);
      std::string row = row_os.str();
      if (!row.empty() && row.back() == '\n') row.pop_back();
      sample_rows.push_back(std::move(row));
    }
    samples_shipped = samples.size();
    TelemetryHeartbeat hb;
    hb.node = config.ip;
    hb.role = role_name(config.role);
    hb.epoch = config.epoch;
    hb.uptime = wall;
    hb.closing = closing;
    // The closing snapshot ships twice with *fresh* seqs (the collector's
    // dedup window would drop a re-send under the same seqs); both passes
    // carry identical rows, so whichever arrives last wins identically.
    const int passes = closing ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      hb.seq = telemetry_next_seq;
      const auto datagrams =
          build_telemetry_datagrams(hb, metric_rows, sample_rows);
      for (const auto& d : datagrams) telemetry->send(d);
      telemetry_next_seq += datagrams.size();
    }
  };

  // --- the real-time loop: wall clock -> simulator -> sockets ---
  WallClock clock;
  sim::Time next_sample = config.sample_period;
  sim::Time next_telemetry = config.telemetry_period;
  const auto collect_sample = [&] {
    double continuity = 0.0;
    std::uint64_t viewers = 0;
    std::uint64_t same_isp_links = 0;
    std::uint64_t total_links = 0;
    if (peer != nullptr && peer->alive()) {
      const auto& c = peer->counters();
      if (c.chunks_played + c.chunks_missed > 0) {
        continuity = c.continuity();
        viewers = 1;
      }
      for (const auto& ip : peer->neighbor_ips()) {
        ++total_links;
        if (db.category_or_foreign(ip) == own_category) ++same_isp_links;
      }
    }
    sampler.record(
        simulator.now(), traffic,
        total_links == 0 ? 0.0
                         : static_cast<double>(same_isp_links) /
                               static_cast<double>(total_links),
        viewers == 0 ? 0.0 : continuity, viewers);
  };

  for (;;) {
    if (stop()) break;
    const sim::Time wall = clock.now();
    if (config.duration > sim::Time::zero() && wall >= config.duration) break;
    advance_to_wall(simulator, wall);
    transport.poll(/*timeout_ms=*/2);
    transport.dispatch(simulator.now());
    if (config.sample_period > sim::Time::zero() && wall >= next_sample) {
      collect_sample();
      next_sample = next_sample + config.sample_period;
    }
    if (telemetry != nullptr && config.telemetry_period > sim::Time::zero() &&
        wall >= next_telemetry) {
      ship_telemetry(wall, /*closing=*/false);
      next_telemetry = next_telemetry + config.telemetry_period;
    }
  }

  // --- graceful shutdown ---
  // Leaving notifies neighbors; a short drain window lets the goodbyes (and
  // any replies already queued to us) clear before sockets close.
  if (peer != nullptr) peer->leave();
  if (source != nullptr) source->stop();
  const sim::Time drain_until = clock.now() + sim::Time::millis(200);
  while (clock.now() < drain_until) {
    advance_to_wall(simulator, clock.now());
    transport.poll(/*timeout_ms=*/10);
    transport.dispatch(simulator.now());
  }
  if (config.sample_period > sim::Time::zero()) collect_sample();
  // The closing snapshot goes out before the local sinks are written: by
  // the time the process's own files exist, the collector has (modulo UDP
  // loss, which the double-send covers) the same rows.
  ship_telemetry(clock.now(), /*closing=*/true);

  // --- report + sink flush (runs on every exit path, signal included) ---
  NodeReport report;
  report.transport = transport.stats();
  report.rx_errors = transport.rx_errors();
  if (peer != nullptr) {
    report.counters = peer->counters();
    report.continuity = report.counters.continuity();
  }
  if (source != nullptr) {
    report.chunks_produced = source->chunks_produced();
    report.requests_served = source->requests_served();
  }
  if (tracker != nullptr) report.queries_served = tracker->queries_served();
  if (bootstrap != nullptr) report.joins_served = bootstrap->joins_served();
  report.samples_recorded = sampler.samples().size();
  report.delivered_locality = delivered_locality();
  if (telemetry != nullptr) {
    report.telemetry_seq =
        telemetry_next_seq == 0 ? 0 : telemetry_next_seq - 1;
    report.telemetry_datagrams = telemetry->datagrams_sent();
  }

  if (!config.samples_out.empty()) {
    std::ofstream os(config.samples_out);
    obs::write_samples_ndjson(os, sampler.samples());
  }
  if (!config.metrics_out.empty()) {
    if (telemetry == nullptr) {
      // No closing snapshot converged the registry; do it here so the sink
      // carries the end-of-run state.
      update_metrics(clock.now());
    }
    std::ofstream os(config.metrics_out);
    metrics.write_ndjson(os);
  }
  if (trace_os.is_open()) {
    trace_os.flush();
    trace_os.close();
  }
  return report;
}

}  // namespace ppsim::wire
