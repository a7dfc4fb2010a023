#include "capture/trace_io.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

namespace ppsim::capture {

namespace {

void write_ip_list(std::ostream& os, const std::vector<net::IpAddress>& ips) {
  os << ips.size();
  for (const auto& ip : ips) os << ',' << ip.value();
}

void write_map(std::ostream& os, const proto::BufferMap& map) {
  os << map.base << ',' << map.have.size();
  // Bits packed as hex nibbles to keep lines short.
  os << ',';
  int nibble = 0, filled = 0;
  for (std::size_t i = 0; i < map.have.size(); ++i) {
    nibble = (nibble << 1) | (map.have[i] ? 1 : 0);
    if (++filled == 4) {
      os << "0123456789abcdef"[nibble];
      nibble = 0;
      filled = 0;
    }
  }
  if (filled > 0) os << "0123456789abcdef"[nibble << (4 - filled)];
}

struct FieldWriter {
  std::ostream& os;

  void operator()(const proto::ChannelListQuery&) const {}
  void operator()(const proto::ChannelListReply& m) const {
    os << m.channels.size();
    for (auto c : m.channels) os << ',' << c;
  }
  void operator()(const proto::JoinQuery& m) const { os << m.channel; }
  void operator()(const proto::JoinReply& m) const {
    os << m.channel << ',' << m.source.value() << ',';
    write_ip_list(os, m.trackers);
  }
  void operator()(const proto::TrackerQuery& m) const { os << m.channel; }
  void operator()(const proto::TrackerReply& m) const {
    os << m.channel << ',';
    write_ip_list(os, m.peers);
  }
  void operator()(const proto::PeerListQuery& m) const {
    os << m.channel << ',';
    write_ip_list(os, m.my_peers);
  }
  void operator()(const proto::PeerListReply& m) const {
    os << m.channel << ',';
    write_ip_list(os, m.peers);
  }
  void operator()(const proto::ConnectQuery& m) const { os << m.channel; }
  void operator()(const proto::ConnectReply& m) const {
    os << m.channel << ',' << (m.accepted ? 1 : 0) << ',';
    write_map(os, m.map);
  }
  void operator()(const proto::BufferMapAnnounce& m) const {
    os << m.channel << ',';
    write_map(os, m.map);
  }
  void operator()(const proto::DataQuery& m) const {
    os << m.channel << ',' << m.chunk;
  }
  void operator()(const proto::DataReply& m) const {
    os << m.channel << ',' << m.chunk << ',' << m.subpieces << ','
       << m.payload_bytes;
  }
  void operator()(const proto::Goodbye& m) const { os << m.channel; }
};

/// Tokenizer over the comma-separated tail of a record line.
class Fields {
 public:
  explicit Fields(std::istringstream& in) : in_(in) {}

  std::optional<std::uint64_t> u64() {
    std::string tok;
    if (!std::getline(in_, tok, ',')) return std::nullopt;
    try {
      std::size_t pos = 0;
      std::uint64_t v = std::stoull(tok, &pos);
      if (pos != tok.size()) return std::nullopt;
      return v;
    } catch (...) {
      return std::nullopt;
    }
  }

  std::optional<std::string> token() {
    std::string tok;
    if (!std::getline(in_, tok, ',')) return std::nullopt;
    return tok;
  }

  /// An upper bound on the tokens left on the line, so a count read from
  /// the line is checked before anything is allocated for it.
  std::uint64_t tokens_left() {
    const std::streamoff pos = in_.tellg();
    if (pos < 0) return 0;  // the line is used up
    const std::string_view rest =
        in_.view().substr(static_cast<std::size_t>(pos));
    return static_cast<std::uint64_t>(
               std::count(rest.begin(), rest.end(), ',')) + 1;
  }

  std::optional<std::vector<net::IpAddress>> ip_list() {
    auto n = u64();
    if (!n || *n > tokens_left()) return std::nullopt;
    std::vector<net::IpAddress> out;
    out.reserve(static_cast<std::size_t>(*n));
    for (std::uint64_t i = 0; i < *n; ++i) {
      auto v = u64();
      if (!v) return std::nullopt;
      out.emplace_back(static_cast<std::uint32_t>(*v));
    }
    return out;
  }

  std::optional<proto::BufferMap> map() {
    auto base = u64();
    auto bits = u64();
    auto hex = token();
    if (!base || !bits || !hex || *bits > 4 * hex->size()) return std::nullopt;
    proto::BufferMap m;
    m.base = *base;
    m.have.resize(static_cast<std::size_t>(*bits));
    for (std::size_t i = 0; i < m.have.size(); ++i) {
      const std::size_t byte = i / 4;
      if (byte >= hex->size()) return std::nullopt;
      const char c = (*hex)[byte];
      int nib;
      if (c >= '0' && c <= '9')
        nib = c - '0';
      else if (c >= 'a' && c <= 'f')
        nib = c - 'a' + 10;
      else
        return std::nullopt;
      m.have[i] = (nib >> (3 - static_cast<int>(i % 4))) & 1;
    }
    return m;
  }

 private:
  std::istringstream& in_;
};

std::optional<proto::Message> parse_payload(const std::string& type,
                                            Fields& f) {
  using namespace proto;
  auto channel = [&]() -> std::optional<ChannelId> {
    auto v = f.u64();
    if (!v) return std::nullopt;
    return static_cast<ChannelId>(*v);
  };

  if (type == "ChannelListQuery") return Message{ChannelListQuery{}};
  if (type == "ChannelListReply") {
    auto n = f.u64();
    if (!n) return std::nullopt;
    ChannelListReply m;
    for (std::uint64_t i = 0; i < *n; ++i) {
      auto c = f.u64();
      if (!c) return std::nullopt;
      m.channels.push_back(static_cast<ChannelId>(*c));
    }
    return Message{std::move(m)};
  }
  if (type == "JoinQuery") {
    auto c = channel();
    if (!c) return std::nullopt;
    return Message{JoinQuery{*c}};
  }
  if (type == "JoinReply") {
    auto c = channel();
    auto src = f.u64();
    if (!c || !src) return std::nullopt;
    auto trackers = f.ip_list();
    if (!trackers) return std::nullopt;
    return Message{JoinReply{*c, net::IpAddress(static_cast<std::uint32_t>(*src)),
                             std::move(*trackers)}};
  }
  if (type == "TrackerQuery") {
    auto c = channel();
    if (!c) return std::nullopt;
    return Message{TrackerQuery{*c}};
  }
  if (type == "TrackerReply") {
    auto c = channel();
    if (!c) return std::nullopt;
    auto peers = f.ip_list();
    if (!peers) return std::nullopt;
    return Message{TrackerReply{*c, std::move(*peers)}};
  }
  if (type == "PeerListQuery") {
    auto c = channel();
    if (!c) return std::nullopt;
    auto peers = f.ip_list();
    if (!peers) return std::nullopt;
    return Message{PeerListQuery{*c, std::move(*peers)}};
  }
  if (type == "PeerListReply") {
    auto c = channel();
    if (!c) return std::nullopt;
    auto peers = f.ip_list();
    if (!peers) return std::nullopt;
    return Message{PeerListReply{*c, std::move(*peers)}};
  }
  if (type == "ConnectQuery") {
    auto c = channel();
    if (!c) return std::nullopt;
    return Message{ConnectQuery{*c}};
  }
  if (type == "ConnectReply") {
    auto c = channel();
    auto accepted = f.u64();
    if (!c || !accepted) return std::nullopt;
    auto map = f.map();
    if (!map) return std::nullopt;
    return Message{ConnectReply{*c, *accepted != 0, std::move(*map)}};
  }
  if (type == "BufferMapAnnounce") {
    auto c = channel();
    if (!c) return std::nullopt;
    auto map = f.map();
    if (!map) return std::nullopt;
    return Message{BufferMapAnnounce{*c, std::move(*map)}};
  }
  if (type == "DataQuery") {
    auto c = channel();
    auto chunk = f.u64();
    if (!c || !chunk) return std::nullopt;
    return Message{DataQuery{*c, *chunk}};
  }
  if (type == "DataReply") {
    auto c = channel();
    auto chunk = f.u64();
    auto sub = f.u64();
    auto bytes = f.u64();
    if (!c || !chunk || !sub || !bytes) return std::nullopt;
    return Message{DataReply{*c, *chunk, static_cast<std::uint32_t>(*sub),
                             static_cast<std::uint32_t>(*bytes)}};
  }
  if (type == "Goodbye") {
    auto c = channel();
    if (!c) return std::nullopt;
    return Message{Goodbye{*c}};
  }
  return std::nullopt;
}

}  // namespace

std::size_t write_trace(std::ostream& os, const PacketTrace& trace) {
  for (const auto& rec : trace) {
    os << rec.time.as_micros() << ','
       << (rec.direction == net::Direction::kOutgoing ? "out" : "in") << ','
       << rec.local.value() << ',' << rec.remote.value() << ','
       << rec.wire_bytes << ',' << proto::message_name(rec.payload);
    std::ostringstream fields;
    std::visit(FieldWriter{fields}, rec.payload);
    const std::string tail = fields.str();
    if (!tail.empty()) os << ',' << tail;
    os << '\n';
  }
  return trace.size();
}

bool write_trace_file(const std::string& path, const PacketTrace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace(out, trace);
  return static_cast<bool>(out);
}

std::optional<TraceRecord> parse_record(const std::string& line) {
  std::istringstream in(line);
  Fields f(in);
  auto time_us = [&]() -> std::optional<std::int64_t> {
    auto tok = f.token();
    if (!tok) return std::nullopt;
    try {
      return std::stoll(*tok);
    } catch (...) {
      return std::nullopt;
    }
  }();
  auto dir = f.token();
  auto local = f.u64();
  auto remote = f.u64();
  auto bytes = f.u64();
  auto type = f.token();
  if (!time_us || !dir || !local || !remote || !bytes || !type)
    return std::nullopt;
  if (*dir != "out" && *dir != "in") return std::nullopt;

  auto payload = parse_payload(*type, f);
  if (!payload) return std::nullopt;

  TraceRecord rec;
  rec.time = sim::Time::micros(*time_us);
  rec.direction =
      *dir == "out" ? net::Direction::kOutgoing : net::Direction::kIncoming;
  rec.local = net::IpAddress(static_cast<std::uint32_t>(*local));
  rec.remote = net::IpAddress(static_cast<std::uint32_t>(*remote));
  rec.wire_bytes = *bytes;
  rec.payload = std::move(*payload);
  return rec;
}

PacketTrace read_trace(std::istream& is, std::size_t* dropped) {
  PacketTrace trace;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    auto rec = parse_record(line);
    if (rec)
      trace.push_back(std::move(*rec));
    else
      ++bad;
  }
  if (dropped) *dropped = bad;
  return trace;
}

std::optional<PacketTrace> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_trace(in);
}

}  // namespace ppsim::capture
