// The fleet telemetry plane (docs/OBSERVABILITY.md, "Fleet telemetry"):
// delta snapshots, the ppsim-telemetry-v1 datagram format, metric-row
// round-trips, the Collector ingest core (dedup, closing snapshots,
// heartbeat-timeout loss), and the pinned byte-identity between the
// collector's folds and the offline folds over the same per-node inputs.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "sim/time.h"
#include "wire/collector.h"
#include "wire/telemetry.h"

namespace ppsim::wire {
namespace {

using obs::MetricsDeltaTracker;
using obs::MetricsRegistry;
using obs::ParsedMetric;
using obs::TrafficSample;
using sim::Time;

std::string registry_ndjson(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.write_ndjson(os);
  return os.str();
}

std::string sample_row(const TrafficSample& s) {
  std::ostringstream os;
  obs::write_sample_ndjson(os, s);
  std::string row = os.str();
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return row;
}

TEST(MetricsDeltaTracker, ShipsOnlyChangedRows) {
  MetricsRegistry registry;
  registry.counter("chunks").inc(3);
  registry.gauge("continuity").set(0.5);

  MetricsDeltaTracker tracker;
  EXPECT_EQ(tracker.collect(registry).size(), 2u);
  EXPECT_TRUE(tracker.collect(registry).empty());  // nothing changed

  registry.counter("chunks").inc();
  const std::vector<std::string> delta = tracker.collect(registry);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_NE(delta[0].find("\"chunks\""), std::string::npos);
  EXPECT_NE(delta[0].find("\"value\":4"), std::string::npos);

  // collect_full re-ships everything and resets the delta baseline.
  EXPECT_EQ(tracker.collect_full(registry).size(), 2u);
  EXPECT_TRUE(tracker.collect(registry).empty());
}

TEST(TelemetryMetricRow, ParsesAndAppliesCounterAndGauge) {
  MetricsRegistry registry;
  registry.counter("sent", {{"isp", "tele"}}).inc(42);
  registry.gauge("rss").set(1.25e8);

  MetricsRegistry back;
  std::istringstream in(registry_ndjson(registry));
  std::size_t skipped = 7;
  EXPECT_EQ(obs::read_metrics_ndjson(in, &back, &skipped), 2u);
  EXPECT_EQ(skipped, 0u);
  // The round-trip is byte-stable — the collector-side registry
  // re-serializes to the exact sink bytes.
  EXPECT_EQ(registry_ndjson(back), registry_ndjson(registry));
}

TEST(TelemetryMetricRow, CounterApplyIsMonotonicGaugeIsLastWriteWins) {
  ParsedMetric m;
  ASSERT_TRUE(obs::parse_metric_ndjson(
      R"({"metric":"sent","type":"counter","labels":{},"value":10})", &m));
  ASSERT_EQ(m.kind, ParsedMetric::Kind::kCounter);
  EXPECT_EQ(m.counter_value, 10u);

  MetricsRegistry registry;
  EXPECT_TRUE(obs::apply_metric(m, &registry));
  m.counter_value = 5;  // a stale replay can never rewind the counter
  EXPECT_TRUE(obs::apply_metric(m, &registry));
  EXPECT_EQ(registry.counter("sent").value(), 10u);
  m.counter_value = 12;
  EXPECT_TRUE(obs::apply_metric(m, &registry));
  EXPECT_EQ(registry.counter("sent").value(), 12u);

  ParsedMetric g;
  ASSERT_TRUE(obs::parse_metric_ndjson(
      R"({"metric":"rss","type":"gauge","labels":{},"value":7.5})", &g));
  ASSERT_EQ(g.kind, ParsedMetric::Kind::kGauge);
  EXPECT_TRUE(obs::apply_metric(g, &registry));
  g.gauge_value = 2.5;
  EXPECT_TRUE(obs::apply_metric(g, &registry));
  EXPECT_EQ(registry.gauge("rss").value(), 2.5);

  // The value must fill its token and fit its type. A counter of -1 would
  // otherwise read as 2^64-1 and, being monotonic, stick for the run.
  EXPECT_FALSE(obs::parse_metric_ndjson(
      R"({"metric":"sent","type":"counter","labels":{},"value":-1})", &m));
  EXPECT_FALSE(obs::parse_metric_ndjson(
      R"({"metric":"sent","type":"counter","labels":{},"value":5x})", &m));
  EXPECT_FALSE(obs::parse_metric_ndjson(
      R"({"metric":"rss","type":"gauge","labels":{},"value":1e999})", &g));
}

TEST(TelemetryMetricRow, HistogramRowsAreRecognizedButSkipped) {
  MetricsRegistry registry;
  registry.histogram("lat", {1.0, 2.0}).observe(1.5);
  const std::string rows = registry_ndjson(registry);

  ParsedMetric m;
  std::istringstream lines(rows);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(obs::parse_metric_ndjson(line, &m));
  EXPECT_EQ(m.kind, ParsedMetric::Kind::kSkipped);
  MetricsRegistry back;
  EXPECT_FALSE(obs::apply_metric(m, &back));

  std::istringstream in(rows);
  std::size_t skipped = 0;
  EXPECT_EQ(obs::read_metrics_ndjson(in, &back, &skipped), 0u);
  EXPECT_EQ(skipped, 1u);

  EXPECT_FALSE(obs::parse_metric_ndjson("not a metric row", &m));
  EXPECT_FALSE(obs::parse_metric_ndjson(R"({"t":0.5,"alive":3})", &m));
}

TEST(TelemetryHeartbeat, EncodeDecodeRoundTrip) {
  TelemetryHeartbeat hb;
  hb.node = net::IpAddress(127, 2, 0, 10);
  hb.role = "peer";
  hb.epoch = 3;
  hb.seq = 17;
  hb.uptime = Time::from_seconds(12.5);
  hb.closing = false;

  const std::string line = encode_heartbeat(hb);
  EXPECT_EQ(classify_telemetry_record(line), TelemetryRecord::kHeartbeat);
  EXPECT_NE(line.find("\"telemetry_schema\":\"ppsim-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"state\":\"up\""), std::string::npos);

  TelemetryHeartbeat back;
  ASSERT_TRUE(decode_heartbeat(line, &back));
  EXPECT_EQ(back.node, hb.node);
  EXPECT_EQ(back.role, "peer");
  EXPECT_EQ(back.epoch, 3);
  EXPECT_EQ(back.seq, 17u);
  EXPECT_EQ(back.uptime, hb.uptime);
  EXPECT_FALSE(back.closing);

  hb.closing = true;
  ASSERT_TRUE(decode_heartbeat(encode_heartbeat(hb), &back));
  EXPECT_TRUE(back.closing);

  // Only the documented roles: the collector logs the role line by line.
  for (const char* role : {"relay", "peer\nevent=node-lost", ""}) {
    hb.role = role;
    EXPECT_FALSE(decode_heartbeat(encode_heartbeat(hb), &back)) << role;
  }

  EXPECT_FALSE(decode_heartbeat("", &back));
  EXPECT_FALSE(decode_heartbeat("{\"metric\":\"x\"}", &back));
  EXPECT_FALSE(decode_heartbeat(
      "{\"telemetry_schema\":\"ppsim-telemetry-v2\",\"node\":\"127.0.0.1\","
      "\"role\":\"peer\",\"epoch\":1,\"seq\":0,\"uptime_s\":0.000000,"
      "\"state\":\"up\"}",
      &back));
}

TEST(TelemetryRecordInventory, ClassifiesByPrefix) {
  EXPECT_EQ(classify_telemetry_record("{\"metric\":\"x\",\"type\":..."),
            TelemetryRecord::kMetric);
  EXPECT_EQ(classify_telemetry_record("{\"t\":0.500000,\"alive\":3"),
            TelemetryRecord::kSample);
  EXPECT_EQ(classify_telemetry_record("{\"bench_schema\":\"x\"}"),
            TelemetryRecord::kUnknown);
  // One display name per non-unknown enumerator, audited against docs.
  EXPECT_EQ(kTelemetryRecordNames.size(), 3u);
}

TEST(TelemetryDatagrams, PacksRowsBehindPerDatagramHeartbeats) {
  TelemetryHeartbeat hb;
  hb.node = net::IpAddress(127, 1, 0, 10);
  hb.role = "peer";
  hb.seq = 5;

  // No payload: one heartbeat-only datagram.
  const auto empty = build_telemetry_datagrams(hb, {}, {});
  ASSERT_EQ(empty.size(), 1u);
  TelemetryHeartbeat back;
  ASSERT_TRUE(decode_heartbeat(empty[0], &back));
  EXPECT_EQ(back.seq, 5u);

  // Small payload: heartbeat first, then metric rows, then sample rows.
  const std::string metric =
      R"({"metric":"sent","type":"counter","labels":{},"value":1})";
  TrafficSample s;
  s.t = Time::from_seconds(2.0);
  const auto one = build_telemetry_datagrams(hb, {metric}, {sample_row(s)});
  ASSERT_EQ(one.size(), 1u);
  std::istringstream lines(one[0]);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(classify_telemetry_record(line), TelemetryRecord::kHeartbeat);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, metric);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, sample_row(s));
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(TelemetryDatagrams, SplitsOversizedSnapshotsWithConsecutiveSeqs) {
  TelemetryHeartbeat hb;
  hb.node = net::IpAddress(127, 1, 0, 10);
  hb.role = "peer";
  hb.seq = 100;

  std::vector<std::string> rows;
  for (int i = 0; i < 8; ++i)
    rows.push_back("{\"metric\":\"m" + std::to_string(i) +
                   "\",\"type\":\"counter\",\"labels\":{},\"value\":1}");
  // A cap close to one heartbeat + one row forces one row per datagram.
  const std::size_t cap = encode_heartbeat(hb).size() + rows[0].size() + 8;
  const auto datagrams = build_telemetry_datagrams(hb, rows, {}, cap);
  ASSERT_GT(datagrams.size(), 1u);

  std::vector<std::string> reassembled;
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    std::istringstream lines(datagrams[i]);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    TelemetryHeartbeat back;
    ASSERT_TRUE(decode_heartbeat(line, &back));
    EXPECT_EQ(back.seq, 100u + i);  // consecutive, each its own heartbeat
    while (std::getline(lines, line)) reassembled.push_back(line);
  }
  EXPECT_EQ(reassembled, rows);

  // A single row larger than the cap still ships (alone), never dropped.
  const std::string huge(2 * cap, 'x');
  const auto overweight = build_telemetry_datagrams(hb, {huge}, {}, cap);
  ASSERT_EQ(overweight.size(), 1u);
  EXPECT_NE(overweight[0].find(huge), std::string::npos);
}

TEST(TelemetryParseHostPort, AcceptsIpPortRejectsJunk) {
  net::IpAddress ip;
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_host_port("127.0.0.9:47500", &ip, &port));
  EXPECT_EQ(ip, net::IpAddress(127, 0, 0, 9));
  EXPECT_EQ(port, 47500);
  EXPECT_FALSE(parse_host_port("127.0.0.9", &ip, &port));
  EXPECT_FALSE(parse_host_port("127.0.0.9:0", &ip, &port));
  EXPECT_FALSE(parse_host_port("127.0.0.9:99999", &ip, &port));
  EXPECT_FALSE(parse_host_port("not-an-ip:123", &ip, &port));
  EXPECT_FALSE(parse_host_port("", &ip, &port));
  EXPECT_FALSE(parse_host_port("127.0.0.9: 80", &ip, &port));
  EXPECT_FALSE(parse_host_port("127.0.0.9:+80", &ip, &port));
}

// --- Collector ---

std::string closing_snapshot(net::IpAddress node, const std::string& role,
                             std::uint64_t seq,
                             const MetricsRegistry& registry,
                             const std::vector<std::string>& sample_rows) {
  TelemetryHeartbeat hb;
  hb.node = node;
  hb.role = role;
  hb.seq = seq;
  hb.closing = true;
  MetricsDeltaTracker tracker;
  const auto datagrams =
      build_telemetry_datagrams(hb, tracker.collect_full(registry),
                                sample_rows);
  // Tests keep snapshots under one datagram; join if that ever changes.
  EXPECT_EQ(datagrams.size(), 1u);
  return datagrams[0];
}

TEST(Collector, DedupsBySeqAndTracksLifecycle) {
  std::ostringstream events;
  Collector::Config config;
  config.heartbeat_timeout = Time::seconds(4);
  config.events_out = &events;
  Collector collector(config);

  const net::IpAddress peer(127, 2, 0, 10);
  TelemetryHeartbeat hb;
  hb.node = peer;
  hb.role = "peer";
  hb.seq = 1;
  const std::string d1 = build_telemetry_datagrams(hb, {}, {})[0];
  EXPECT_TRUE(collector.ingest(d1, Time::seconds(1)));
  EXPECT_FALSE(collector.ingest(d1, Time::seconds(1)));  // duplicate seq
  EXPECT_EQ(collector.node_count(), 1u);
  EXPECT_EQ(collector.duplicates_dropped(), 1u);
  EXPECT_FALSE(collector.ingest("garbage\n", Time::seconds(1)));
  EXPECT_EQ(collector.malformed_dropped(), 1u);
  EXPECT_NE(events.str().find("event=node-up node=127.2.0.10"),
            std::string::npos);

  // Silence past the heartbeat timeout: lost; a later datagram: recovered.
  collector.tick(Time::seconds(6));
  EXPECT_EQ(collector.lost_count(), 1u);
  EXPECT_NE(events.str().find("event=node-lost node=127.2.0.10"),
            std::string::npos);
  hb.seq = 2;
  EXPECT_TRUE(collector.ingest(build_telemetry_datagrams(hb, {}, {})[0],
                               Time::seconds(7)));
  EXPECT_EQ(collector.lost_count(), 0u);
  EXPECT_NE(events.str().find("event=node-recovered node=127.2.0.10"),
            std::string::npos);

  // Closing snapshot: closed, and immune to the timeout scan.
  hb.seq = 3;
  hb.closing = true;
  EXPECT_TRUE(collector.ingest(build_telemetry_datagrams(hb, {}, {})[0],
                               Time::seconds(8)));
  EXPECT_EQ(collector.closed_count(), 1u);
  collector.tick(Time::seconds(60));
  EXPECT_EQ(collector.closed_count(), 1u);
  EXPECT_EQ(collector.lost_count(), 0u);

  std::ostringstream report;
  collector.write_node_reports(report);
  EXPECT_NE(report.str().find("node=127.2.0.10 role=peer status=closed "
                              "last_seq=3"),
            std::string::npos);
}

TEST(Collector, FoldsAreByteIdenticalToOfflineFolds) {
  // Two nodes with overlapping counters, distinct gauges and one sample
  // each — the collector path (ingest datagrams) and the offline path
  // (fold the registries/samples directly) must produce identical bytes.
  MetricsRegistry reg_a;
  reg_a.counter("wire_packets_sent").inc(10);
  reg_a.counter("wire_rx_errors", {{"bucket", "truncated"}}).inc(2);
  reg_a.gauge("peer_continuity").set(0.875);
  TrafficSample sample_a;
  sample_a.t = Time::from_seconds(4.0);
  sample_a.bytes[0][0] = 900;
  sample_a.bytes[0][1] = 100;
  sample_a.same_isp_share_cum = 0.9;
  sample_a.neighbor_same_isp_share = 0.5;
  sample_a.avg_continuity = 0.875;
  sample_a.alive_peers = 1;

  MetricsRegistry reg_b;
  reg_b.counter("wire_packets_sent").inc(32);
  reg_b.gauge("resource_rss_bytes").set(8.0e7);
  TrafficSample sample_b;
  sample_b.t = Time::from_seconds(6.0);
  sample_b.bytes[1][1] = 300;
  sample_b.bytes[1][0] = 700;
  sample_b.same_isp_share_cum = 0.3;
  sample_b.neighbor_same_isp_share = 0.25;
  sample_b.avg_continuity = 0.5;
  sample_b.alive_peers = 3;

  const net::IpAddress ip_a(127, 1, 0, 10);
  const net::IpAddress ip_b(127, 2, 0, 11);

  Collector collector(Collector::Config{});
  EXPECT_TRUE(collector.ingest(
      closing_snapshot(ip_a, "peer", 1, reg_a, {sample_row(sample_a)}),
      Time::seconds(1)));
  EXPECT_TRUE(collector.ingest(
      closing_snapshot(ip_b, "peer", 1, reg_b, {sample_row(sample_b)}),
      Time::seconds(1)));
  // The closing resend (fresh seq, identical rows) must not change state.
  EXPECT_TRUE(collector.ingest(
      closing_snapshot(ip_a, "peer", 2, reg_a, {sample_row(sample_a)}),
      Time::seconds(1)));
  EXPECT_EQ(collector.closed_count(), 2u);

  MetricsRegistry live_fold;
  collector.fold_closed_metrics(&live_fold);
  TrafficSample live_matrix;
  ASSERT_TRUE(collector.fold_closed_matrix(&live_matrix));

  MetricsRegistry offline_fold;
  fold_fleet_metrics({{ip_a, &reg_a}, {ip_b, &reg_b}}, &offline_fold);
  TrafficSample offline_matrix;
  ASSERT_TRUE(fold_fleet_matrix({{ip_a, &sample_a}, {ip_b, &sample_b}},
                                &offline_matrix));

  EXPECT_EQ(registry_ndjson(live_fold), registry_ndjson(offline_fold));
  EXPECT_EQ(sample_row(live_matrix), sample_row(offline_matrix));

  // Fold semantics: counters total across nodes plus node-labeled rows;
  // the matrix sums elementwise with t = max and alive-weighted means.
  EXPECT_EQ(offline_fold.counter("wire_packets_sent").value(), 42u);
  EXPECT_EQ(offline_fold
                .counter("wire_packets_sent", {{"node", "127.1.0.10"}})
                .value(),
            10u);
  EXPECT_EQ(offline_matrix.t, Time::from_seconds(6.0));
  EXPECT_EQ(offline_matrix.bytes[0][0], 900u);
  EXPECT_EQ(offline_matrix.bytes[1][1], 300u);
  EXPECT_EQ(offline_matrix.alive_peers, 4u);
  // (900 + 300) intra of 2000 total; neighbor mean = (0.5*1 + 0.25*3)/4.
  EXPECT_DOUBLE_EQ(offline_matrix.same_isp_share_cum, 0.6);
  EXPECT_DOUBLE_EQ(offline_matrix.neighbor_same_isp_share, 0.3125);
  EXPECT_DOUBLE_EQ(offline_matrix.avg_continuity,
                   (0.875 * 1 + 0.5 * 3) / 4.0);
}

TEST(Collector, LostNodesStayOutOfFinalArtifacts) {
  MetricsRegistry reg;
  reg.counter("wire_packets_sent").inc(5);

  const net::IpAddress closed_ip(127, 1, 0, 10);
  const net::IpAddress lost_ip(127, 2, 0, 11);

  Collector collector(Collector::Config{});
  EXPECT_TRUE(collector.ingest(closing_snapshot(closed_ip, "peer", 1, reg, {}),
                               Time::seconds(1)));
  TelemetryHeartbeat hb;
  hb.node = lost_ip;
  hb.role = "peer";
  hb.seq = 1;
  MetricsDeltaTracker tracker;
  EXPECT_TRUE(collector.ingest(
      build_telemetry_datagrams(hb, tracker.collect_full(reg), {})[0],
      Time::seconds(1)));
  collector.tick(Time::seconds(60));
  EXPECT_EQ(collector.closed_count(), 1u);
  EXPECT_EQ(collector.lost_count(), 1u);

  // Only the closed node folds — matching the offline fold over the sink
  // files that exist (the lost node never wrote any).
  MetricsRegistry folded;
  collector.fold_closed_metrics(&folded);
  MetricsRegistry offline;
  fold_fleet_metrics({{closed_ip, &reg}}, &offline);
  EXPECT_EQ(registry_ndjson(folded), registry_ndjson(offline));
  EXPECT_EQ(folded.counter("wire_packets_sent").value(), 5u);
}

TEST(Collector, EmitsFleetSamplesWhenTheSampleClockAdvances) {
  std::ostringstream fleet;
  Collector::Config config;
  config.fleet_samples_out = &fleet;
  Collector collector(config);

  TrafficSample s;
  s.t = Time::from_seconds(2.0);
  s.bytes[0][0] = 100;
  s.alive_peers = 1;
  TelemetryHeartbeat hb;
  hb.node = net::IpAddress(127, 1, 0, 10);
  hb.role = "peer";
  hb.seq = 1;
  ASSERT_TRUE(collector.ingest(
      build_telemetry_datagrams(hb, {}, {sample_row(s)})[0],
      Time::seconds(2)));
  collector.tick(Time::seconds(2));
  collector.tick(Time::seconds(3));  // no advance — no duplicate row

  s.t = Time::from_seconds(4.0);
  s.bytes[0][0] = 250;
  hb.seq = 2;
  ASSERT_TRUE(collector.ingest(
      build_telemetry_datagrams(hb, {}, {sample_row(s)})[0],
      Time::seconds(4)));
  collector.tick(Time::seconds(4));

  // Exactly one row per fleet-t advance; the stream parses as the
  // standard samples NDJSON (duplicate t would be rejected here).
  std::istringstream in(fleet.str());
  const std::vector<TrafficSample> rows = obs::read_samples_ndjson(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].t, Time::from_seconds(2.0));
  EXPECT_EQ(rows[1].t, Time::from_seconds(4.0));
  EXPECT_EQ(rows[1].bytes[0][0], 250u);

  // The summary's t is the collector's wall clock (the `now` we pass),
  // not the folded fleet sample time.
  std::ostringstream summary;
  collector.write_summary(summary, Time::seconds(5));
  EXPECT_NE(summary.str().find("[collect] t=5.0 nodes=1"),
            std::string::npos);
  EXPECT_NE(summary.str().find("intra_isp_share=1.000"), std::string::npos);
}

}  // namespace
}  // namespace ppsim::wire
