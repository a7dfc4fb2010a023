// Loopback replay: a captured message mix pushed through one
// wire::UdpTransport whose four hosts send in a ring. The loop is closed:
// at most kWindow datagrams are in flight, and the next one is sent only
// when an earlier one has been dispatched (or failed), so the measured
// wall time is the transport's own per-datagram cost.

#include <algorithm>
#include <array>
#include <optional>
#include <type_traits>
#include <variant>

#include "net/isp.h"
#include "suite.h"
#include "wire/udp.h"

namespace ppsim::benchsuite {

namespace {

constexpr std::uint64_t kWindow = 64;
constexpr int kSetupReps = 25;
constexpr double kStallSeconds = 1.0;

struct LoopbackHost {
  net::IpAddress ip;
  net::IspCategory category;
};

// TELE, CNC, TELE, FOREIGN on the loopback topology of wire::NodeRunner
// (127.1/16 TELE, 127.2/16 CNC, 127.5/16 FOREIGN).
const std::array<LoopbackHost, 4> kHosts = {{
    {net::IpAddress(127, 1, 0, 1), net::IspCategory::kTele},
    {net::IpAddress(127, 2, 0, 1), net::IspCategory::kCnc},
    {net::IpAddress(127, 1, 0, 2), net::IspCategory::kTele},
    {net::IpAddress(127, 5, 0, 1), net::IspCategory::kForeign},
}};

template <typename M>
constexpr bool kHasChannel = requires(M m) { m.channel; };

/// The channel field doubles as the datagram's send index (a u32 the codec
/// round-trips); nullopt for message types without one.
std::optional<std::uint32_t> channel_of(const proto::Message& m) {
  return std::visit(
      [](const auto& v) -> std::optional<std::uint32_t> {
        if constexpr (kHasChannel<std::decay_t<decltype(v)>>) return v.channel;
        return std::nullopt;
      },
      m);
}

void set_channel(proto::Message& m, std::uint32_t value) {
  std::visit(
      [value](auto& v) {
        if constexpr (kHasChannel<std::decay_t<decltype(v)>>) v.channel = value;
      },
      m);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

void attach_all(wire::UdpTransport& transport,
                const proto::PeerTransport::Handler& handler) {
  for (const auto& h : kHosts)
    transport.attach(h.ip, net::IspId{}, h.category, net::AccessProfile{},
                     handler);
}

/// Transport construction through the first dispatched datagram.
double setup_once(std::uint16_t port, const proto::Message& first) {
  const auto t0 = Clock::now();
  wire::UdpTransport transport({.port = port, .epoch = 1});
  bool delivered = false;
  attach_all(transport, [&](const proto::PeerTransport::Delivery&) {
    delivered = true;
  });
  transport.send(kHosts[0].ip, kHosts[1].ip, first, proto::wire_size(first));
  while (!delivered && seconds_since(t0) < kStallSeconds) {
    transport.poll(1);
    transport.dispatch(sim::Time::zero());
  }
  return delivered ? seconds_since(t0) : kStallSeconds;
}

}  // namespace

std::vector<proto::Message> replay_mix(const capture::PacketTrace& trace) {
  std::vector<proto::Message> mix;
  for (const auto& record : trace)
    if (channel_of(record.payload).has_value()) mix.push_back(record.payload);
  return mix;
}

ReplayResult replay(const std::vector<proto::Message>& mix,
                    const ReplayOptions& options) {
  ReplayResult r;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i)
    setups.push_back(setup_once(options.port, mix.front()));
  r.setup_s = median(setups);

  const std::uint64_t n = options.datagrams;
  std::vector<Clock::time_point> sent_at(n);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<double> latency_us;
  latency_us.reserve(n);
  std::uint64_t settled = 0;  // matched + failed: no longer in flight

  wire::UdpTransport transport({.port = options.port, .epoch = 1});
  attach_all(transport, [&](const proto::PeerTransport::Delivery& d) {
    const auto now = Clock::now();
    ++settled;
    const auto idx = channel_of(d.payload);
    if (!idx || *idx >= r.sent || seen[*idx] != 0) {
      ++r.failed;
      return;
    }
    seen[*idx] = 1;
    const proto::Message& expected = mix[(options.offset + *idx) % mix.size()];
    if (d.payload.index() != expected.index() ||
        d.wire_bytes != proto::wire_size(expected) ||
        d.to != kHosts[(*idx + 1) % kHosts.size()].ip) {
      ++r.failed;
      return;
    }
    ++r.matched;
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(now - sent_at[*idx]).count());
  });

  double send_s = 0, poll_s = 0, dispatch_s = 0;
  std::uint64_t polls_with_data = 0, polled = 0;
  const auto timed = [&](double* acc, auto&& fn) {
    if (!options.traced) return fn();
    const auto t0 = Clock::now();
    auto ret = fn();
    *acc += seconds_since(t0);
    return ret;
  };

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto last_progress = t0;
  while (r.sent < n || settled < r.sent) {
    while (r.sent < n && r.sent - settled < kWindow) {
      const std::uint64_t i = r.sent;
      proto::Message m = mix[(options.offset + i) % mix.size()];
      set_channel(m, static_cast<std::uint32_t>(i));
      const std::uint64_t bytes = proto::wire_size(m);
      sent_at[i] = Clock::now();
      ++r.sent;
      const bool ok = timed(&send_s, [&] {
        return transport.send(kHosts[i % kHosts.size()].ip,
                              kHosts[(i + 1) % kHosts.size()].ip,
                              std::move(m), bytes);
      });
      if (!ok) ++settled;
    }
    const int got = timed(&poll_s, [&] { return transport.poll(0); });
    if (got > 0) {
      ++polls_with_data;
      polled += static_cast<std::uint64_t>(got);
      last_progress = Clock::now();
    } else if (seconds_since(last_progress) > kStallSeconds) {
      break;  // whatever is still in flight is lost
    }
    r.rx_queue_peak =
        std::max<std::uint64_t>(r.rx_queue_peak, transport.rx_queue_depth());
    timed(&dispatch_s,
          [&] { return transport.dispatch(sim::Time::zero()); });
  }
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.failed += r.sent - std::min(r.sent, r.matched + r.failed);
  r.rx_errors = transport.rx_errors().total();
  r.uplink_drops = transport.stats().uplink_drops;
  r.downlink_drops = transport.stats().downlink_drops;
  r.lat_p50_us = percentile(latency_us, 0.50);
  r.lat_p99_us = percentile(latency_us, 0.99);
  if (options.traced && r.matched > 0) {
    const double matched = static_cast<double>(r.matched);
    r.send_us = send_s * 1e6 / static_cast<double>(r.sent);
    r.poll_us_per_dgram = poll_s * 1e6 / matched;
    r.dispatch_us_per_dgram = dispatch_s * 1e6 / matched;
    r.dgrams_per_poll = polls_with_data == 0
                            ? 0
                            : static_cast<double>(polled) /
                                  static_cast<double>(polls_with_data);
  }
  return r;
}

}  // namespace ppsim::benchsuite
