#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip.h"
#include "sim/time.h"

namespace ppsim::wire {

/// The fleet telemetry plane: ppsim-telemetry-v1 (docs/OBSERVABILITY.md,
/// "Fleet telemetry").
///
/// A telemetry datagram is text NDJSON, deliberately *not* the binary
/// ppsim-wire-v1 codec: it carries the exact rows the node's own
/// --metrics-out / --samples-out sinks would contain, so a collector that
/// folds received rows and an offline fold of the per-node sink files are
/// byte-comparable by construction. Layout:
///
///   line 1   heartbeat  {"telemetry_schema":"ppsim-telemetry-v1",...}
///   line 2+  payload    metric rows ({"metric":...}) and/or sample rows
///                       ({"t":...}), each byte-identical to its sink row
///
/// Every datagram carries its own heartbeat (and its own seq), so any
/// single datagram identifies its node, role, epoch and position in the
/// node's snapshot stream, and a heartbeat-only datagram is the minimal
/// liveness signal.
inline constexpr std::string_view kTelemetrySchema = "ppsim-telemetry-v1";

/// Stay safely under UdpTransport::kMaxDatagram-ish limits and typical
/// loopback defaults; snapshots larger than this split into consecutive
/// datagrams (each with its own seq).
inline constexpr std::size_t kTelemetryMaxDatagram = 32 * 1024;

/// The record types a telemetry datagram may carry, classified by line
/// prefix. ppsim-audit's completeness pass cross-checks this inventory
/// against the "Telemetry record types" table in docs/OBSERVABILITY.md.
enum class TelemetryRecord : std::uint8_t {
  kHeartbeat = 0,  // node identity/role/epoch/seq/uptime/state
  kMetric = 1,     // one metrics-NDJSON row (cumulative values)
  kSample = 2,     // one samples-NDJSON row (TrafficSampler window)
  kUnknown = 3,
};

inline constexpr std::array<std::string_view, 3> kTelemetryRecordNames = {
    "Heartbeat",
    "Metric",
    "Sample",
};

/// Classifies one datagram line by its prefix; anything unrecognized is
/// kUnknown (counted, never applied).
TelemetryRecord classify_telemetry_record(std::string_view line);

/// The heartbeat record. `closing` marks a node's final full snapshot
/// (graceful shutdown); the collector uses it to distinguish "node closed"
/// from "node lost" (heartbeat timeout).
struct TelemetryHeartbeat {
  net::IpAddress node;
  std::string role;  // "hub" | "source" | "peer"
  std::uint16_t epoch = 1;
  std::uint64_t seq = 0;
  sim::Time uptime = sim::Time::zero();
  bool closing = false;
};

/// One heartbeat line, no trailing newline:
/// {"telemetry_schema":"ppsim-telemetry-v1","node":"127.1.0.10",
///  "role":"peer","epoch":1,"seq":7,"uptime_s":12.500000,"state":"up"}
std::string encode_heartbeat(const TelemetryHeartbeat& hb);

/// Parses a heartbeat line (schema checked). Returns false on anything
/// malformed, from another schema version, or naming a role other than
/// the three above.
bool decode_heartbeat(const std::string& line, TelemetryHeartbeat* out);

/// Packs payload rows (metric rows first, then sample rows — both without
/// trailing newlines) into datagrams of at most `max_bytes`, each prefixed
/// with its own heartbeat. Datagram seqs are consecutive starting at
/// hb.seq; the caller advances its seq counter by the number of datagrams
/// returned. With no payload rows, returns one heartbeat-only datagram.
/// A single oversized row still ships (alone, overweight) rather than
/// being dropped silently.
std::vector<std::string> build_telemetry_datagrams(
    const TelemetryHeartbeat& hb, const std::vector<std::string>& metric_rows,
    const std::vector<std::string>& sample_rows,
    std::size_t max_bytes = kTelemetryMaxDatagram);

/// Fire-and-forget UDP sender for telemetry datagrams. One unbound socket,
/// nonblocking; send failures are counted, never fatal — telemetry must
/// not take the data plane down.
class TelemetryClient {
 public:
  TelemetryClient(net::IpAddress to, std::uint16_t port);
  ~TelemetryClient();

  TelemetryClient(const TelemetryClient&) = delete;
  TelemetryClient& operator=(const TelemetryClient&) = delete;

  /// Socket creation succeeded; when false every send() is a counted no-op.
  bool ok() const { return fd_ >= 0; }

  bool send(const std::string& datagram);

  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t send_errors() const { return send_errors_; }

 private:
  int fd_ = -1;
  net::IpAddress to_;
  std::uint16_t port_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t send_errors_ = 0;
};

/// Parses "IP:PORT" (e.g. "127.0.0.9:47500"). Returns false on malformed
/// input; used by the --telemetry-to flag and ppsim-collect's --bind.
bool parse_host_port(const std::string& spec, net::IpAddress* ip,
                     std::uint16_t* port);

}  // namespace ppsim::wire
