// ppsim-node: one real-wire deployment node (docs/WIRE.md).
//
// Runs an unmodified proto entity — hub (bootstrap + tracker), source, or
// peer — over wire::UdpTransport on real UDP sockets, driven by the wall
// clock. A loopback deployment is one hub, one source and N peers on
// 127.0.0.0/8 sharing a port; tools/wire_smoke.py launches exactly that.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flag_values.h"
#include "wire/node.h"
#include "wire/telemetry.h"

namespace {

// Signal flag: handlers only set it; the node's run loop polls it between
// events, so shutdown always runs the full flush path in run_node().
volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

ppsim::net::IpAddress parse_ip(const char* flag, const std::string& value) {
  const auto ip = ppsim::net::IpAddress::parse(value);
  if (!ip.has_value()) {
    std::fprintf(stderr, "ppsim-node: %s: bad IPv4 address '%s'\n", flag,
                 value.c_str());
    std::exit(2);
  }
  return *ip;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: ppsim-node --role=hub|source|peer --ip=A.B.C.D --port=P\n"
      "  [--bootstrap=IP] [--tracker=IP] [--source=IP] [--epoch=N]\n"
      "  [--channel=N] [--bitrate-bps=R] [--duration-s=S] [--seed=N]\n"
      "  [--metrics-out=F] [--samples-out=F] [--trace-out=F]\n"
      "  [--sample-period-s=S] [--telemetry-to=IP:PORT]\n"
      "  [--telemetry-period-s=S]\n"
      "Addresses must be loopback (127.x/16 encodes the ISP; docs/WIRE.md).\n");
}

}  // namespace

int main(int argc, char** argv) {
  using ppsim::wire::NodeConfig;
  using ppsim::wire::NodeRole;

  NodeConfig config;
  config.channel.id = 1;
  config.channel.name = "wire";
  const ppsim::tools::FlagValues flags("ppsim-node");

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--role") {
      if (value == "hub") config.role = NodeRole::kHub;
      else if (value == "source") config.role = NodeRole::kSource;
      else if (value == "peer") config.role = NodeRole::kPeer;
      else { usage(); return 2; }
    } else if (key == "--ip") {
      config.ip = parse_ip("--ip", value);
    } else if (key == "--bootstrap") {
      config.bootstrap = parse_ip("--bootstrap", value);
    } else if (key == "--tracker") {
      config.tracker = parse_ip("--tracker", value);
    } else if (key == "--source") {
      config.source = parse_ip("--source", value);
    } else if (key == "--port") {
      config.port = flags.integer<std::uint16_t>(key, value);
    } else if (key == "--epoch") {
      config.epoch = flags.integer<std::uint16_t>(key, value);
    } else if (key == "--channel") {
      config.channel.id = flags.integer<std::uint32_t>(key, value);
    } else if (key == "--bitrate-bps") {
      config.channel.bitrate_bps = flags.positive(key, value);
    } else if (key == "--duration-s") {
      config.duration = flags.seconds(key, value);
    } else if (key == "--seed") {
      config.seed = flags.integer<std::uint64_t>(key, value);
    } else if (key == "--metrics-out") {
      config.metrics_out = value;
    } else if (key == "--samples-out") {
      config.samples_out = value;
    } else if (key == "--trace-out") {
      config.trace_out = value;
    } else if (key == "--sample-period-s") {
      config.sample_period = flags.seconds(key, value);
    } else if (key == "--telemetry-to") {
      ppsim::net::IpAddress collect_ip;
      std::uint16_t collect_port = 0;
      if (!ppsim::wire::parse_host_port(value, &collect_ip, &collect_port)) {
        std::fprintf(stderr, "ppsim-node: --telemetry-to: bad IP:PORT '%s'\n",
                     value.c_str());
        return 2;
      }
      config.telemetry_to = value;
    } else if (key == "--telemetry-period-s") {
      config.telemetry_period = flags.seconds(key, value);
    } else if (key == "--help" || key == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "ppsim-node: unknown flag '%s'\n", key.c_str());
      usage();
      return 2;
    }
  }
  if (config.port == 0 || config.ip.is_unspecified()) {
    usage();
    return 2;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  const ppsim::wire::NodeReport report =
      ppsim::wire::run_node(config, [] { return g_stop != 0; });

  // One greppable summary line per node; wire_smoke.py asserts on these
  // fields. Keys mirror the sim CLI's report vocabulary.
  const char* role = config.role == NodeRole::kHub      ? "hub"
                     : config.role == NodeRole::kSource ? "source"
                                                        : "peer";
  std::printf(
      "ppsim-node role=%s ip=%s sent=%llu delivered=%llu "
      "uplink_drops=%llu downlink_drops=%llu dead_drops=%llu "
      "rx_errors=%llu telemetry_seq=%llu telemetry_datagrams=%llu\n",
      role, config.ip.to_string().c_str(),
      static_cast<unsigned long long>(report.transport.packets_sent),
      static_cast<unsigned long long>(report.transport.packets_delivered),
      static_cast<unsigned long long>(report.transport.uplink_drops),
      static_cast<unsigned long long>(report.transport.downlink_drops),
      static_cast<unsigned long long>(report.transport.dead_destination_drops),
      static_cast<unsigned long long>(report.rx_errors.total()),
      static_cast<unsigned long long>(report.telemetry_seq),
      static_cast<unsigned long long>(report.telemetry_datagrams));
  if (config.role == NodeRole::kPeer) {
    std::printf(
        "ppsim-node peer-report chunks_played=%llu chunks_missed=%llu "
        "continuity=%.4f data_replies=%llu locality=%.4f samples=%llu\n",
        static_cast<unsigned long long>(report.counters.chunks_played),
        static_cast<unsigned long long>(report.counters.chunks_missed),
        report.continuity,
        static_cast<unsigned long long>(report.counters.data_replies_received),
        report.delivered_locality,
        static_cast<unsigned long long>(report.samples_recorded));
  } else if (config.role == NodeRole::kSource) {
    std::printf(
        "ppsim-node source-report chunks_produced=%llu requests_served=%llu\n",
        static_cast<unsigned long long>(report.chunks_produced),
        static_cast<unsigned long long>(report.requests_served));
  } else {
    std::printf(
        "ppsim-node hub-report joins_served=%llu queries_served=%llu\n",
        static_cast<unsigned long long>(report.joins_served),
        static_cast<unsigned long long>(report.queries_served));
  }
  return 0;
}
