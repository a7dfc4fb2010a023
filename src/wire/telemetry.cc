#include "wire/telemetry.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <sstream>

#include "obs/json.h"

namespace ppsim::wire {

TelemetryRecord classify_telemetry_record(std::string_view line) {
  if (line.rfind("{\"telemetry_schema\"", 0) == 0)
    return TelemetryRecord::kHeartbeat;
  if (line.rfind("{\"metric\":", 0) == 0) return TelemetryRecord::kMetric;
  if (line.rfind("{\"t\":", 0) == 0) return TelemetryRecord::kSample;
  return TelemetryRecord::kUnknown;
}

std::string encode_heartbeat(const TelemetryHeartbeat& hb) {
  std::ostringstream os;
  os << "{\"telemetry_schema\":\"" << kTelemetrySchema << "\",\"node\":";
  obs::write_json_string(os, hb.node.to_string());
  os << ",\"role\":";
  obs::write_json_string(os, hb.role);
  os << ",\"epoch\":" << hb.epoch << ",\"seq\":" << hb.seq << ",\"uptime_s\":";
  obs::write_json_sim_time(os, hb.uptime);
  os << ",\"state\":";
  obs::write_json_string(os, hb.closing ? "closing" : "up");
  os << '}';
  return os.str();
}

bool decode_heartbeat(const std::string& line, TelemetryHeartbeat* out) {
  *out = TelemetryHeartbeat{};
  std::string schema, node, state;
  std::uint64_t epoch = 0;
  if (!obs::read_json_string(line, "telemetry_schema", &schema) ||
      schema != kTelemetrySchema || !obs::read_json_string(line, "node", &node))
    return false;
  const auto ip = net::IpAddress::parse(node);
  if (!ip.has_value()) return false;
  out->node = *ip;
  // Only the documented roles: the collector echoes the role into its
  // line-oriented event log.
  if (!obs::read_json_string(line, "role", &out->role) ||
      (out->role != "hub" && out->role != "source" && out->role != "peer"))
    return false;
  if (!obs::read_json_u64(line, "epoch", &epoch) || epoch > 0xffff)
    return false;
  out->epoch = static_cast<std::uint16_t>(epoch);
  if (!obs::read_json_u64(line, "seq", &out->seq) ||
      !obs::read_json_sim_time(line, "uptime_s", &out->uptime) ||
      !obs::read_json_string(line, "state", &state) ||
      (state != "up" && state != "closing"))
    return false;
  out->closing = state == "closing";
  return true;
}

std::vector<std::string> build_telemetry_datagrams(
    const TelemetryHeartbeat& hb, const std::vector<std::string>& metric_rows,
    const std::vector<std::string>& sample_rows, std::size_t max_bytes) {
  std::vector<std::string> datagrams;
  TelemetryHeartbeat head = hb;
  std::string current;
  const auto open = [&] { current = encode_heartbeat(head); };
  const auto seal = [&] {
    datagrams.push_back(std::move(current));
    ++head.seq;
    open();
  };
  open();
  const auto append = [&](const std::string& row) {
    // +1 for the separating newline; an oversized row ships alone.
    if (current.size() + 1 + row.size() > max_bytes &&
        current.size() > encode_heartbeat(head).size())
      seal();
    current += '\n';
    current += row;
  };
  for (const auto& row : metric_rows) append(row);
  for (const auto& row : sample_rows) append(row);
  datagrams.push_back(std::move(current));
  return datagrams;
}

TelemetryClient::TelemetryClient(net::IpAddress to, std::uint16_t port)
    : to_(to), port_(port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ >= 0) ::fcntl(fd_, F_SETFL, O_NONBLOCK);
}

TelemetryClient::~TelemetryClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TelemetryClient::send(const std::string& datagram) {
  if (fd_ < 0) {
    ++send_errors_;
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(to_.value());
  const ssize_t n =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (n == static_cast<ssize_t>(datagram.size())) {
    ++sent_;
    return true;
  }
  ++send_errors_;
  return false;
}

bool parse_host_port(const std::string& spec, net::IpAddress* ip,
                     std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  const auto parsed = net::IpAddress::parse(spec.substr(0, colon));
  // The port fills the rest of the spec: no sign, no space, 1..65535.
  std::uint16_t p = 0;
  const char* end = spec.data() + spec.size();
  const auto [ptr, ec] = std::from_chars(spec.data() + colon + 1, end, p);
  if (!parsed.has_value() || ec != std::errc{} || ptr != end || p == 0)
    return false;
  *ip = *parsed;
  *port = p;
  return true;
}

}  // namespace ppsim::wire
