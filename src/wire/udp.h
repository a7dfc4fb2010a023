#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string_view>

#include "net/transport.h"
#include "proto/host.h"
#include "proto/message.h"
#include "sim/time.h"
#include "wire/codec.h"

namespace ppsim::wire {

/// Real-socket implementation of the proto::PeerTransport delivery
/// contract (net::DatagramTransport<proto::Message>) over nonblocking UDP.
///
/// Addressing is the identity mapping: a protocol net::IpAddress *is* the
/// node's real IPv4 address, and every node of a deployment binds the same
/// shared UDP port (Config::port). The loopback harness runs whole swarms
/// on 127.0.0.0/8 this way — Linux answers for every 127.x.y.z without
/// interface configuration — and a LAN deployment uses one host per IP.
///
/// Each attach() binds one nonblocking socket; poll() drains every socket
/// into a bounded receive queue (decode happens here; rejected datagrams
/// land in RxErrors, never in a handler); dispatch() invokes handlers on
/// the caller's thread. Everything is single-threaded: the node's run loop
/// alternates simulator events, poll() and dispatch(), so handlers observe
/// the same no-concurrency guarantee the sim gives them.
///
/// Drop accounting maps socket outcomes onto the sim's Stats buckets
/// (docs/WIRE.md "Drop accounting"): local send failures are uplink_drops,
/// receive-queue overflow is downlink_drops, a handler-less destination at
/// dispatch time is dead_destination_drops. Codec rejections are counted
/// separately in RxErrors — they are not packets the *protocol* lost, and
/// keeping them out of Stats preserves the one-bucket-per-packet audit.
class UdpTransport final : public proto::PeerTransport {
 public:
  struct Config {
    std::uint16_t port = 0;        // shared deployment port; != 0 to bind
    std::uint16_t epoch = 1;       // channel epoch stamped into every packet
    std::size_t rx_queue_limit = 4096;
  };
  static constexpr int kSocketBufferBytes = 1 << 20;  // SO_RCVBUF/SO_SNDBUF

  /// Datagrams rejected by the codec before reaching any handler, one
  /// counter per WireError. A healthy same-version deployment keeps all of
  /// these at zero; bad_epoch/bad_version spikes mean mixed deployments.
  struct RxErrors {
    std::uint64_t truncated = 0;
    std::uint64_t bad_magic = 0;
    std::uint64_t bad_version = 0;
    std::uint64_t bad_epoch = 0;
    std::uint64_t bad_tag = 0;
    std::uint64_t bad_length = 0;
    std::uint64_t bad_aux = 0;
    std::uint64_t bad_reserved = 0;
    std::uint64_t total() const {
      return truncated + bad_magic + bad_version + bad_epoch + bad_tag +
             bad_length + bad_aux + bad_reserved;
    }
  };

  explicit UdpTransport(Config config);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // --- proto::PeerTransport ---
  /// Binds a nonblocking UDP socket on (ip, Config::port). The isp/category
  /// /profile fields exist for the sim's models and are accepted-but-unused
  /// here: the real link enforces its own capacity.
  void attach(net::IpAddress ip, net::IspId isp, net::IspCategory category,
              const net::AccessProfile& profile, Handler handler) override;
  void detach(net::IpAddress ip) override;
  bool attached(net::IpAddress ip) const override;
  bool send(net::IpAddress from, net::IpAddress to, proto::Message payload,
            std::uint64_t wire_bytes) override;
  const Stats& stats() const override { return stats_; }

  // --- wire-side surface (the node's run loop) ---
  /// Waits up to timeout_ms for any socket to become readable, then drains
  /// all of them into the receive queue. Returns datagrams enqueued.
  int poll(int timeout_ms);

  /// Delivers up to max_deliveries queued datagrams to their handlers,
  /// stamping `now` as the Delivery receive time (Delivery::sent_at is
  /// unused by the protocol entities; the wire cannot know the sender's
  /// clock). Returns datagrams delivered.
  int dispatch(sim::Time now, int max_deliveries = 1 << 20);

  const RxErrors& rx_errors() const { return rx_errors_; }
  std::size_t rx_queue_depth() const { return rx_queue_.size(); }
  std::size_t host_count() const { return sockets_.size(); }

  /// Observer invoked once per delivered datagram, after the handler's
  /// host is resolved and before the handler runs — the wire counterpart
  /// of the sim Network's global tap, used for per-ISP traffic accounting.
  using DeliveryTap = std::function<void(const Delivery&)>;
  void set_delivery_tap(DeliveryTap tap) { tap_ = std::move(tap); }

 private:
  struct Socket {
    int fd = -1;
    Handler handler;
  };
  struct RxEntry {
    net::IpAddress from;
    net::IpAddress to;
    proto::Message message;
    std::uint64_t wire_bytes = 0;
  };

  void note_rx_error(WireError e);

  Config config_;
  // Ordered map: poll()/teardown iterate it, and wire files must hold the
  // same no-hash-order-iteration discipline the audit enforces repo-wide.
  std::map<net::IpAddress, Socket> sockets_;
  std::deque<RxEntry> rx_queue_;
  Stats stats_;
  RxErrors rx_errors_;
  DeliveryTap tap_;
};

/// The rx-error bucket inventory, one name per RxErrors field, in field
/// order. These become the `bucket` label of the wire_rx_errors metric
/// (docs/WIRE.md, "Rx error counters"); ppsim-audit's completeness pass
/// cross-checks this array against both the struct fields and the docs
/// table.
inline constexpr std::array<std::string_view, 8> kRxErrorBucketNames = {
    "truncated", "bad_magic", "bad_version", "bad_epoch",
    "bad_tag",   "bad_length", "bad_aux",    "bad_reserved",
};

/// Visits every rx-error bucket as (name, count), in kRxErrorBucketNames
/// order — the loop the metrics exporter and the node report share.
template <typename Fn>
void for_each_rx_error(const UdpTransport::RxErrors& e, Fn&& fn) {
  fn(kRxErrorBucketNames[0], e.truncated);
  fn(kRxErrorBucketNames[1], e.bad_magic);
  fn(kRxErrorBucketNames[2], e.bad_version);
  fn(kRxErrorBucketNames[3], e.bad_epoch);
  fn(kRxErrorBucketNames[4], e.bad_tag);
  fn(kRxErrorBucketNames[5], e.bad_length);
  fn(kRxErrorBucketNames[6], e.bad_aux);
  fn(kRxErrorBucketNames[7], e.bad_reserved);
}

}  // namespace ppsim::wire
