// ppsim-collect: the fleet telemetry collector (docs/OBSERVABILITY.md,
// "Fleet telemetry").
//
// Binds one UDP socket, ingests ppsim-telemetry-v1 datagrams from a
// deployment's ppsim-node processes (--telemetry-to on the node side),
// and maintains the fleet view: per-node health (up / closed / lost via
// heartbeat timeout), merged counters, and the global per-ISP-pair
// traffic matrix with its intra-ISP share time series. Emits a periodic
// stderr summary plus node lifecycle events, a live fleet-level samples
// NDJSON stream, and — on shutdown — merged-metrics and fleet-matrix
// artifacts restricted to gracefully closed nodes, byte-identical to
// `ppsim-analyze --fleet` run offline over those nodes' sink files.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "flag_values.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "wire/clock.h"
#include "wire/collector.h"
#include "wire/telemetry.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: ppsim-collect --bind=IP:PORT\n"
      "  [--heartbeat-timeout-s=S] [--summary-period-s=S] [--duration-s=S]\n"
      "  [--expect-closed=N] [--fleet-samples-out=F] [--fleet-metrics-out=F]\n"
      "  [--fleet-matrix-out=F]\n"
      "--bind port 0 picks a free port; the chosen one is printed as\n"
      "collect_listening=IP:PORT on stdout before ingest starts.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using ppsim::sim::Time;

  std::string bind_spec;
  Time heartbeat_timeout = Time::seconds(10);
  Time summary_period = Time::seconds(2);
  Time duration;
  std::size_t expect_closed = 0;
  std::string fleet_samples_out;
  std::string fleet_metrics_out;
  std::string fleet_matrix_out;
  const ppsim::tools::FlagValues flags("ppsim-collect");

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--bind") {
      bind_spec = value;
    } else if (key == "--heartbeat-timeout-s") {
      heartbeat_timeout = flags.seconds(key, value);
    } else if (key == "--summary-period-s") {
      summary_period = flags.seconds(key, value);
    } else if (key == "--duration-s") {
      duration = flags.seconds(key, value);
    } else if (key == "--expect-closed") {
      expect_closed = flags.integer<std::size_t>(key, value);
    } else if (key == "--fleet-samples-out") {
      fleet_samples_out = value;
    } else if (key == "--fleet-metrics-out") {
      fleet_metrics_out = value;
    } else if (key == "--fleet-matrix-out") {
      fleet_matrix_out = value;
    } else if (key == "--help" || key == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "ppsim-collect: unknown flag '%s'\n", key.c_str());
      usage();
      return 2;
    }
  }

  ppsim::net::IpAddress bind_ip;
  std::uint16_t bind_port = 0;
  if (bind_spec.empty()) {
    usage();
    return 2;
  }
  // Port 0 ("pick one for me") is legal here, so only the IP goes through
  // the strict parser when the port part is "0".
  const auto colon = bind_spec.rfind(':');
  if (!ppsim::wire::parse_host_port(bind_spec, &bind_ip, &bind_port)) {
    if (colon == std::string::npos ||
        bind_spec.substr(colon + 1) != "0" ||
        !ppsim::net::IpAddress::parse(bind_spec.substr(0, colon))
             .has_value()) {
      std::fprintf(stderr, "ppsim-collect: --bind: bad IP:PORT '%s'\n",
                   bind_spec.c_str());
      return 2;
    }
    bind_ip = *ppsim::net::IpAddress::parse(bind_spec.substr(0, colon));
    bind_port = 0;
  }

  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::perror("ppsim-collect: socket");
    return 1;
  }
  int rcvbuf = 1 << 22;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(bind_port);
  sa.sin_addr.s_addr = htonl(bind_ip.value());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    std::fprintf(stderr, "ppsim-collect: bind(%s) failed: %s\n",
                 bind_spec.c_str(), std::strerror(errno));
    ::close(fd);
    return 1;
  }
  socklen_t sa_len = sizeof sa;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &sa_len);
  bind_port = ntohs(sa.sin_port);
  std::printf("collect_listening=%s:%u\n", bind_ip.to_string().c_str(),
              unsigned{bind_port});
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::ofstream samples_os;
  ppsim::wire::Collector::Config config;
  config.heartbeat_timeout = heartbeat_timeout;
  config.events_out = &std::cerr;
  if (!fleet_samples_out.empty()) {
    samples_os.open(fleet_samples_out);
    config.fleet_samples_out = &samples_os;
  }
  ppsim::wire::Collector collector(config);

  ppsim::wire::WallClock clock;
  Time next_summary = summary_period;
  char buf[65536];
  while (g_stop == 0) {
    const Time now = clock.now();
    if (duration > Time::zero() && now >= duration) break;
    if (expect_closed > 0 && collector.closed_count() >= expect_closed) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready > 0) {
      for (;;) {
        sockaddr_in from{};
        socklen_t from_len = sizeof from;
        const ssize_t n =
            ::recvfrom(fd, buf, sizeof buf, MSG_DONTWAIT,
                       reinterpret_cast<sockaddr*>(&from), &from_len);
        if (n < 0) break;
        collector.ingest(std::string(buf, static_cast<std::size_t>(n)),
                         clock.now());
      }
    }
    collector.tick(clock.now());
    if (summary_period > Time::zero() && clock.now() >= next_summary) {
      collector.write_summary(std::cerr, clock.now());
      next_summary = next_summary + summary_period;
    }
  }
  ::close(fd);

  // Declare stragglers before the final artifacts: a node that never sent
  // its closing snapshot stays out of the fold either way, but the final
  // summary/report should say "lost", not "up".
  collector.tick(clock.now() + config.heartbeat_timeout + Time::seconds(1));
  collector.write_summary(std::cerr, clock.now());

  if (!fleet_metrics_out.empty()) {
    ppsim::obs::MetricsRegistry merged;
    collector.fold_closed_metrics(&merged);
    std::ofstream os(fleet_metrics_out);
    merged.write_ndjson(os);
  }
  if (!fleet_matrix_out.empty()) {
    ppsim::obs::TrafficSample fleet;
    std::ofstream os(fleet_matrix_out);
    if (collector.fold_closed_matrix(&fleet))
      ppsim::obs::write_sample_ndjson(os, fleet);
  }

  std::printf(
      "ppsim-collect nodes=%zu closed=%zu lost=%zu datagrams=%llu "
      "dups=%llu malformed=%llu unknown_records=%llu metric_rows=%llu "
      "sample_rows=%llu\n",
      collector.node_count(), collector.closed_count(),
      collector.lost_count(),
      static_cast<unsigned long long>(collector.datagrams_accepted()),
      static_cast<unsigned long long>(collector.duplicates_dropped()),
      static_cast<unsigned long long>(collector.malformed_dropped()),
      static_cast<unsigned long long>(collector.unknown_records()),
      static_cast<unsigned long long>(collector.metric_rows_applied()),
      static_cast<unsigned long long>(collector.sample_rows_applied()));
  collector.write_node_reports(std::cout);
  return 0;
}
