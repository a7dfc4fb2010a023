// wire::run_node shutdown ordering (docs/WIRE.md): a node stopped
// mid-run (the SIGTERM path — signal handlers set a flag the run loop
// polls, exactly what the `stop` callback models) must ship its closing
// telemetry snapshot and flush the metrics/samples sinks before the final
// report, so the collector's view and the node's own sink files agree.

#include "wire/node.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "wire/clock.h"
#include "wire/collector.h"

namespace ppsim::wire {
namespace {

/// Binds a UDP socket on `ip`:0 and returns {fd, chosen port}.
std::pair<int, std::uint16_t> bind_udp(net::IpAddress ip) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = 0;
  sa.sin_addr.s_addr = htonl(ip.value());
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa), 0);
  socklen_t len = sizeof sa;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  return {fd, ntohs(sa.sin_port)};
}

std::string registry_ndjson(const obs::MetricsRegistry& registry) {
  std::ostringstream os;
  registry.write_ndjson(os);
  return os.str();
}

TEST(WireNodeShutdown, ClosingSnapshotAndSinksAgreeAfterMidRunStop) {
  // A collector-side receiver socket on its own loopback address.
  const net::IpAddress collect_ip(127, 0, 0, 77);
  const auto [rx_fd, rx_port] = bind_udp(collect_ip);

  // A free shared deployment port for the (single-node) deployment.
  const net::IpAddress node_ip(127, 77, 0, 10);
  const auto [probe_fd, node_port] = bind_udp(node_ip);
  ::close(probe_fd);

  const std::string dir = ::testing::TempDir();
  NodeConfig config;
  config.role = NodeRole::kPeer;
  config.ip = node_ip;
  config.bootstrap = net::IpAddress(127, 77, 0, 1);  // nobody home — fine
  config.tracker = net::IpAddress(127, 77, 0, 2);
  config.source = net::IpAddress(127, 77, 0, 3);
  config.port = node_port;
  config.duration = sim::Time::zero();  // run until stop() fires
  config.metrics_out = dir + "wire_node_shutdown_metrics.ndjson";
  config.samples_out = dir + "wire_node_shutdown_samples.ndjson";
  config.sample_period = sim::Time::millis(100);
  config.telemetry_to =
      collect_ip.to_string() + ":" + std::to_string(rx_port);
  config.telemetry_period = sim::Time::millis(100);

  // Stop mid-run after ~350 ms of wall time — past a few telemetry and
  // sample periods, the way a SIGTERM lands between loop iterations.
  WallClock clock;
  const NodeReport report = run_node(
      config, [&clock] { return clock.now() >= sim::Time::millis(350); });

  EXPECT_GT(report.telemetry_datagrams, 0u);
  EXPECT_GT(report.telemetry_seq, 0u);
  EXPECT_GT(report.samples_recorded, 0u);

  // Drain everything the node sent into a Collector.
  Collector collector(Collector::Config{});
  char buf[65536];
  std::uint64_t received = 0;
  for (;;) {
    const ssize_t n = ::recv(rx_fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0) break;
    ++received;
    collector.ingest(std::string(buf, static_cast<std::size_t>(n)),
                     sim::Time::seconds(1));
  }
  ::close(rx_fd);
  EXPECT_EQ(received, report.telemetry_datagrams);

  // The closing snapshot arrived: node closed, and the collector's
  // last_seq is exactly the report's telemetry_seq — the shutdown pin.
  ASSERT_EQ(collector.node_count(), 1u);
  ASSERT_EQ(collector.closed_count(), 1u);
  std::ostringstream nodes;
  collector.write_node_reports(nodes);
  EXPECT_NE(nodes.str().find("node=" + node_ip.to_string() +
                             " role=peer status=closed last_seq=" +
                             std::to_string(report.telemetry_seq)),
            std::string::npos);

  // The sinks were flushed after the closing snapshot was built from the
  // same live registry, so the offline fold of the node's own files is
  // byte-identical to the collector's fold.
  obs::MetricsRegistry from_sink;
  std::ifstream metrics_in(config.metrics_out);
  ASSERT_TRUE(metrics_in.good());
  std::size_t skipped = 0;
  EXPECT_GT(obs::read_metrics_ndjson(metrics_in, &from_sink, &skipped), 0u);
  EXPECT_EQ(skipped, 0u);

  obs::MetricsRegistry live, offline;
  collector.fold_closed_metrics(&live);
  fold_fleet_metrics({{node_ip, &from_sink}}, &offline);
  EXPECT_EQ(registry_ndjson(live), registry_ndjson(offline));

  std::ifstream samples_in(config.samples_out);
  ASSERT_TRUE(samples_in.good());
  const std::vector<obs::TrafficSample> samples =
      obs::read_samples_ndjson(samples_in);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.size(), report.samples_recorded);

  obs::TrafficSample live_m, offline_m;
  ASSERT_TRUE(collector.fold_closed_matrix(&live_m));
  ASSERT_TRUE(
      fold_fleet_matrix({{node_ip, &samples.back()}}, &offline_m));
  std::ostringstream live_row, offline_row;
  obs::write_sample_ndjson(live_row, live_m);
  obs::write_sample_ndjson(offline_row, offline_m);
  EXPECT_EQ(live_row.str(), offline_row.str());
}

TEST(WireNodeShutdown, TelemetryDisabledReportsZeroSeq) {
  const net::IpAddress node_ip(127, 78, 0, 10);
  const auto [probe_fd, node_port] = bind_udp(node_ip);
  ::close(probe_fd);

  NodeConfig config;
  config.role = NodeRole::kPeer;
  config.ip = node_ip;
  config.bootstrap = net::IpAddress(127, 78, 0, 1);
  config.tracker = net::IpAddress(127, 78, 0, 2);
  config.source = net::IpAddress(127, 78, 0, 3);
  config.port = node_port;
  config.duration = sim::Time::millis(80);

  const NodeReport report = run_node(config, [] { return false; });
  EXPECT_EQ(report.telemetry_seq, 0u);
  EXPECT_EQ(report.telemetry_datagrams, 0u);
}

}  // namespace
}  // namespace ppsim::wire
