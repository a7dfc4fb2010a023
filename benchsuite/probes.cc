// Layer probes: each drives one layer directly through its public API, on
// a size taken from the traced run, and reports the mean cost of one
// operation. Every probe runs for at least kProbeSeconds of wall time.

#include <algorithm>
#include <cstdio>
#include <map>

#include "proto/tracker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "suite.h"
#include "wire/codec.h"

namespace ppsim::benchsuite {

namespace {

constexpr double kProbeSeconds = 0.2;

/// Self-rescheduling no-op: keeps the queue depth constant and stops the
/// simulator once its shared event budget is spent.
struct Tick {
  sim::Simulator* sim;
  sim::Rng* rng;
  std::uint64_t* budget;
  void operator()() const {
    if (--*budget == 0) sim->request_stop();
    sim->schedule_at(sim->now() + sim::Time::micros(static_cast<std::int64_t>(
                                      1 + rng->next_below(1'000'000))),
                     *this);
  }
};

/// In-memory PeerTransport: keeps each host's handler so the probe can
/// deliver to it directly, and swallows sends.
class LoopTransport final : public proto::PeerTransport {
 public:
  void attach(net::IpAddress ip, net::IspId, net::IspCategory,
              const net::AccessProfile&, Handler handler) override {
    handlers_[ip] = std::move(handler);
  }
  void detach(net::IpAddress ip) override { handlers_.erase(ip); }
  bool attached(net::IpAddress ip) const override {
    return handlers_.contains(ip);
  }
  bool send(net::IpAddress, net::IpAddress, proto::Message,
            std::uint64_t) override {
    ++stats_.packets_sent;
    return true;
  }
  const Stats& stats() const override { return stats_; }
  const Handler& handler(net::IpAddress ip) const { return handlers_.at(ip); }

 private:
  std::map<net::IpAddress, Handler> handlers_;
  Stats stats_;
};

}  // namespace

double scheduler_probe_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  sim::Simulator simulator;
  sim::Rng rng(0x5C4ED);
  std::uint64_t budget = 0;
  const Tick tick{&simulator, &rng, &budget};
  for (std::size_t i = 0; i < depth; ++i)
    simulator.schedule_at(sim::Time::micros(static_cast<std::int64_t>(
                              1 + rng.next_below(1'000'000))),
                          tick);
  std::uint64_t events = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kProbeSeconds) {
    budget = 100'000;
    simulator.run();
    events += 100'000;
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(events);
}

double tracker_probe_us(std::size_t members) {
  members = std::max<std::size_t>(members, 1);
  sim::Simulator simulator;
  LoopTransport transport;
  const proto::HostIdentity identity{net::IpAddress(10, 0, 0, 1), net::IspId{},
                                     net::IspCategory::kTele, {}};
  proto::TrackerServer tracker(simulator, transport, identity, sim::Rng(7));
  const auto& handle = transport.handler(identity.ip);
  const auto member_ip = [](std::uint64_t i) {
    return net::IpAddress(0x0B000001u + static_cast<std::uint32_t>(i));
  };
  const auto query_from = [&](std::uint64_t i) {
    proto::Message q = proto::TrackerQuery{1};
    handle(proto::PeerTransport::Delivery{member_ip(i), identity.ip, q,
                                          proto::wire_size(q),
                                          simulator.now()});
  };
  // Register every member, then time queries from random members. Sim time
  // advances 3 ms per batch, far inside the 3-minute entry TTL, so the
  // membership stays at `members` throughout.
  for (std::uint64_t i = 0; i < members; ++i) query_from(i);
  simulator.run_until(simulator.now() + sim::Time::seconds(1));
  sim::Rng pick(11);
  std::uint64_t queries = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kProbeSeconds) {
    for (int i = 0; i < 256; ++i) query_from(pick.next_below(members));
    simulator.run_until(simulator.now() + sim::Time::millis(3));
    queries += 256;
  }
  return seconds_since(t0) * 1e6 / static_cast<double>(queries);
}

CodecCost codec_probe(const std::vector<proto::Message>& mix) {
  CodecCost cost;
  if (mix.empty()) return cost;
  std::vector<std::vector<std::uint8_t>> encoded(mix.size());
  double encode_s = 0;
  double decode_s = 0;
  std::uint64_t rounds = 0;
  std::uint64_t rejected = 0;
  while (encode_s + decode_s < kProbeSeconds) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < mix.size(); ++i)
      if (wire::encode_message(mix[i], 1, &encoded[i]) != wire::WireError::kOk)
        ++rejected;
    encode_s += seconds_since(t0);
    t0 = Clock::now();
    for (const auto& d : encoded)
      if (wire::decode_message(d.data(), d.size(), 1).error !=
          wire::WireError::kOk)
        ++rejected;
    decode_s += seconds_since(t0);
    ++rounds;
  }
  if (rejected != 0) std::fprintf(stderr, "codec probe: %llu rejected\n",
                                  static_cast<unsigned long long>(rejected));
  const double n = static_cast<double>(rounds * mix.size());
  cost.encode_ns = encode_s * 1e9 / n;
  cost.decode_ns = decode_s * 1e9 / n;
  return cost;
}

}  // namespace ppsim::benchsuite
