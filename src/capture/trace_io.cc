#include "capture/trace_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <string_view>
#include <tuple>
#include <vector>

namespace ppsim::capture {

namespace {

constexpr std::string_view kHexDigits = "0123456789abcdef";

/// One text writer per field type; each field is written as `,<text>`.
struct FieldWriter {
  std::ostream& os;

  void operator()(std::uint32_t v) const { os << ',' << v; }
  void operator()(std::uint64_t v) const { os << ',' << v; }
  void operator()(bool v) const { os << ',' << (v ? 1 : 0); }
  void operator()(net::IpAddress ip) const { os << ',' << ip.value(); }
  /// A list is its length, then its entries.
  template <typename T>
  void operator()(const std::vector<T>& list) const {
    os << ',' << list.size();
    for (const T& entry : list) (*this)(entry);
  }
  /// A map is its base, its bit count, then the bits packed as hex nibbles
  /// to keep lines short (an empty token when there are none).
  void operator()(const proto::BufferMap& map) const {
    os << ',' << map.base << ',' << map.have.size() << ',';
    int nibble = 0, filled = 0;
    for (const bool bit : map.have) {
      nibble = (nibble << 1) | (bit ? 1 : 0);
      if (++filled == 4) {
        os << kHexDigits[static_cast<std::size_t>(nibble)];
        nibble = 0;
        filled = 0;
      }
    }
    if (filled > 0)
      os << kHexDigits[static_cast<std::size_t>(nibble << (4 - filled))];
  }
};

/// One text reader per field type, consuming the comma-separated tokens of
/// a record line in order. A number must fill its token and fit its field:
/// no sign, no space, no narrowing. The first failure sticks.
struct FieldReader {
  std::string_view rest;  // the unread tokens
  bool done = false;      // the last token has been read
  bool ok = true;

  std::string_view token() {
    if (done) {
      ok = false;
      return {};
    }
    const std::size_t comma = rest.find(',');
    const std::string_view tok = rest.substr(0, comma);
    if (comma == std::string_view::npos)
      done = true;
    else
      rest.remove_prefix(comma + 1);
    return tok;
  }

  std::size_t tokens_left() const {
    return done ? 0
                : static_cast<std::size_t>(
                      std::count(rest.begin(), rest.end(), ',')) + 1;
  }

  template <typename T>
  void number(T& v) {
    const std::string_view tok = token();
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc{} || ptr != end) ok = false;
  }

  void operator()(std::uint32_t& v) { number(v); }
  void operator()(std::uint64_t& v) { number(v); }
  void operator()(bool& v) {
    const std::string_view tok = token();
    if (tok != "0" && tok != "1") ok = false;
    v = tok == "1";
  }
  void operator()(net::IpAddress& ip) {
    std::uint32_t v = 0;
    number(v);
    ip = net::IpAddress(v);
  }
  template <typename T>
  void operator()(std::vector<T>& list) {
    std::uint64_t n = 0;
    number(n);
    // Checked against the line before anything is allocated for it.
    if (!ok || n > tokens_left()) {
      ok = false;
      return;
    }
    list.resize(static_cast<std::size_t>(n));
    for (T& entry : list) (*this)(entry);
  }
  void operator()(proto::BufferMap& map) {
    std::uint64_t bits = 0;
    number(map.base);
    number(bits);
    const std::string_view hex = token();
    if (!ok || bits > 4 * hex.size()) {
      ok = false;
      return;
    }
    map.have.resize(static_cast<std::size_t>(bits));
    for (std::size_t i = 0; i < map.have.size(); ++i) {
      const std::size_t nibble = kHexDigits.find(hex[i / 4]);
      if (nibble == std::string_view::npos) {
        ok = false;
        return;
      }
      map.have[i] = ((nibble >> (3 - i % 4)) & 1u) != 0;
    }
  }
};

}  // namespace

std::size_t write_trace(std::ostream& os, const PacketTrace& trace) {
  for (const auto& rec : trace) {
    os << rec.time.as_micros() << ','
       << (rec.direction == net::Direction::kOutgoing ? "out" : "in") << ','
       << rec.local.value() << ',' << rec.remote.value() << ','
       << rec.wire_bytes << ',' << proto::message_name(rec.payload);
    const FieldWriter out{os};
    std::visit(
        [&](const auto& msg) {
          std::apply([&](const auto&... field) { (out(field), ...); },
                     msg.fields(msg));
        },
        rec.payload);
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
  FieldReader in{line};
  TraceRecord rec;
  std::int64_t time_us = 0;
  in.number(time_us);
  const std::string_view dir = in.token();
  in(rec.local);
  in(rec.remote);
  in(rec.wire_bytes);
  std::optional<proto::Message> payload = proto::message_named(in.token());
  if (!in.ok || (dir != "out" && dir != "in") || !payload) return std::nullopt;
  std::visit(
      [&](auto& msg) {
        std::apply([&](auto&... field) { (in(field), ...); },
                   msg.fields(msg));
      },
      *payload);
  if (!in.ok || !in.done) return std::nullopt;
  rec.time = sim::Time::micros(time_us);
  rec.direction =
      dir == "out" ? net::Direction::kOutgoing : net::Direction::kIncoming;
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

std::optional<PacketTrace> read_trace_file(const std::string& path,
                                           std::size_t* dropped) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_trace(in, dropped);
}

}  // namespace ppsim::capture
