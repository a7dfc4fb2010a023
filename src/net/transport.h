#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "net/bandwidth.h"
#include "net/impairment.h"
#include "net/interconnect.h"
#include "net/ip.h"
#include "net/ip_index.h"
#include "net/isp.h"
#include "net/latency.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/slab.h"
#include "sim/time.h"

namespace ppsim::net {

enum class Direction : std::uint8_t { kOutgoing = 0, kIncoming = 1 };

/// Abstract delivery contract of a datagram substrate.
///
/// This is the seam the protocol entities (proto::Peer/Tracker/Source/
/// Bootstrap) speak: attach a host with a handler, send best-effort
/// datagrams, detach on departure. Two implementations exist — the
/// simulated Network below (latency/bandwidth/loss models over the
/// discrete-event simulator) and wire::UdpTransport (real nonblocking UDP
/// sockets driven by a wall-clock loop; see src/wire/ and docs/WIRE.md).
/// Protocol code written against this interface runs unmodified in both
/// worlds, which is what keeps sim and wire behavior identical.
///
/// The contract is deliberately UDP-shaped: send() may fail synchronously
/// (returns false) only for drops the sender could observe locally (unknown
/// source, full local queue); every later loss is silent and lands in a
/// Stats bucket. Handlers are invoked on the single event-loop thread of
/// the owning substrate — implementations never call them concurrently.
template <typename Payload>
class DatagramTransport {
 public:
  /// Delivered datagram as seen by the receiving host.
  struct Delivery {
    IpAddress from;
    IpAddress to;
    Payload payload;
    std::uint64_t wire_bytes = 0;
    sim::Time sent_at;  // when the sender handed it to its uplink
  };

  using Handler = std::function<void(const Delivery&)>;

  /// Drop accounting: every packet ends in exactly one bucket — delivered,
  /// or one of the *_drops. The sim Network fills every bucket; the wire
  /// transport maps its socket-level outcomes onto the same buckets
  /// (docs/WIRE.md, "Drop accounting") so tooling reads one schema.
  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t uplink_drops = 0;
    std::uint64_t core_drops = 0;
    std::uint64_t downlink_drops = 0;
    std::uint64_t dead_destination_drops = 0;
    // Fault-injection drops (zero unless an ImpairmentOverlay is active).
    std::uint64_t blackout_drops = 0;
    std::uint64_t brownout_drops = 0;
    std::uint64_t degrade_drops = 0;
  };

  virtual ~DatagramTransport() = default;

  /// Attaches a host. The handler is invoked for every delivered datagram.
  virtual void attach(IpAddress ip, IspId isp, IspCategory category,
                      const AccessProfile& profile, Handler handler) = 0;

  /// Detaches a host (peer leaves). In-flight packets to it are dropped.
  virtual void detach(IpAddress ip) = 0;

  virtual bool attached(IpAddress ip) const = 0;

  /// Sends a datagram. Returns false only for locally observable drops.
  virtual bool send(IpAddress from, IpAddress to, Payload payload,
                    std::uint64_t wire_bytes) = 0;

  virtual const Stats& stats() const = 0;
};

/// UDP-like datagram network over the simulator.
///
/// Templated on the payload type so the substrate stays independent of the
/// protocol living on top (the protocol library instantiates it with its
/// message variant). Each attached host has an IP, an ISP, and an access
/// link; a datagram experiences
///
///   uplink serialization+queueing -> core propagation (LatencyModel, may
///   drop) -> downlink serialization+queueing (may tail-drop)
///
/// and is then delivered to the destination's handler — unless the
/// destination detached in the meantime (peer churn), in which case the
/// packet is silently lost, exactly like real UDP.
///
/// A per-host *tap* observes every sent and received datagram; the capture
/// library uses it to record Wireshark-style traces at probe hosts.
///
/// Storage. Hosts live in a slab of slots with stable addresses; attach
/// takes a free slot and stamps it with a fresh epoch from a run-wide
/// counter (epochs start at 1), and detach clears the slot and sets its
/// epoch to 0. One open-addressing index (IpIndex) maps an attached IP to
/// its slot; send, attach and detach go through it. A packet that passes
/// the send-time checks takes a slot in a second slab of in-flight packets
/// and records its source and destination slots and epochs, so transit and
/// delivery find both hosts without a lookup, and the events they schedule
/// capture only {this, packet slot}, which std::function stores without
/// allocating. Delivery moves the payload out and frees the packet slot
/// before any tap or handler runs. Since nothing moves while a handler runs,
/// a handler may send and may attach hosts. Payload must be default
/// constructible: packet slots are constructed with their slab chunk.
template <typename Payload>
class Network : public DatagramTransport<Payload> {
 public:
  using Delivery = typename DatagramTransport<Payload>::Delivery;
  using Handler = typename DatagramTransport<Payload>::Handler;
  using Stats = typename DatagramTransport<Payload>::Stats;

  /// (direction, local endpoint, remote endpoint, payload, bytes)
  using Tap = std::function<void(Direction, IpAddress local, IpAddress remote,
                                 const Payload&, std::uint64_t)>;
  /// Network-wide observer invoked once per *delivered* datagram. Used by
  /// the experiment harness for swarm-level traffic accounting (something a
  /// real measurement study cannot have — we use it only for ground-truth
  /// validation and the strategy-ablation bench, never in the reproduction
  /// of the paper's probe-side figures).
  using GlobalTap = std::function<void(const Endpoint& from, const Endpoint& to,
                                       const Payload&, std::uint64_t)>;

  Network(sim::Simulator& simulator, LatencyModel latency, sim::Rng rng,
          sim::Time max_backlog = sim::Time::seconds(2))
      : simulator_(simulator),
        latency_(std::move(latency)),
        rng_(rng),
        max_backlog_(max_backlog) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Current simulated time (convenience for taps and tests).
  sim::Time now() const { return simulator_.now(); }

  /// Attaches a host. The handler is invoked for every delivered datagram.
  void attach(IpAddress ip, IspId isp, IspCategory category,
              const AccessProfile& profile, Handler handler) override {
    assert(!ip.is_unspecified());
    assert(!attached(ip) && "IP already attached");
    const std::uint32_t slot = hosts_.acquire();
    Host& h = hosts_[slot];
    h.endpoint = Endpoint{ip, isp, category};
    h.link = AccessLink(profile, max_backlog_);
    h.handler = std::move(handler);
    h.epoch = ++epoch_counter_;
    index_.insert(ip, slot);
  }

  /// Detaches a host (peer leaves). In-flight packets to it are dropped on
  /// arrival; a later re-attach of the same IP is a distinct host (packets
  /// addressed to the old incarnation are not delivered to the new one).
  void detach(IpAddress ip) override {
    const std::uint32_t slot = index_.erase(ip);
    if (slot == IpIndex::kNone) return;
    Host& h = hosts_[slot];
    h.handler = nullptr;
    h.tap = nullptr;
    h.epoch = 0;
    hosts_.release(slot);
  }

  bool attached(IpAddress ip) const override {
    return index_.find(ip) != IpIndex::kNone;
  }

  std::size_t host_count() const { return index_.size(); }

  void set_global_tap(GlobalTap tap) { global_tap_ = std::move(tap); }

  /// Installs shared inter-ISP bottleneck pipes (see InterconnectConfig).
  /// Packets crossing a category boundary then queue at the corresponding
  /// pipe between uplink and core propagation, and may be tail-dropped.
  void set_interconnects(const InterconnectConfig& config) {
    interconnects_.emplace(config);
  }

  const InterconnectFabric* interconnects() const {
    return interconnects_.has_value() ? &*interconnects_ : nullptr;
  }

  /// Installs (or clears, with nullptr) the fault-injection overlay. The
  /// overlay is borrowed, not owned — the caller (the fault driver's host)
  /// must keep it alive for the network's lifetime. With no overlay, or an
  /// installed-but-inactive one, the send path pays a single branch.
  void set_impairments(const ImpairmentOverlay* overlay) {
    impairments_ = overlay;
  }

  const ImpairmentOverlay* impairments() const { return impairments_; }

  /// Installs (or clears, with nullptr) the capture tap for a host.
  void set_tap(IpAddress ip, Tap tap) { host(ip).tap = std::move(tap); }

  const Endpoint& endpoint(IpAddress ip) const { return host(ip).endpoint; }

  const AccessLink& link(IpAddress ip) const { return host(ip).link; }

  /// Ground-truth RTT between two attached hosts (for tests/validation).
  sim::Time true_rtt(IpAddress a, IpAddress b) const {
    return latency_.pair_rtt(endpoint(a), endpoint(b));
  }

  /// Sends a datagram. Returns false if it was dropped before entering the
  /// core (unknown sender, sender uplink overflow); core and downlink drops
  /// happen later and are reported via stats only — the sender cannot
  /// observe them, as in real life.
  bool send(IpAddress from, IpAddress to, Payload payload,
            std::uint64_t wire_bytes) override {
    const std::uint32_t src_slot = index_.find(from);
    if (src_slot == IpIndex::kNone) return false;
    Host& sender = hosts_[src_slot];
    ++stats_.packets_sent;
    stats_.bytes_sent += wire_bytes;
    if (sender.tap)
      sender.tap(Direction::kOutgoing, from, to, payload, wire_bytes);

    auto admission = sender.link.up().enqueue(simulator_.now(), wire_bytes);
    if (!admission.admitted) {
      ++stats_.uplink_drops;
      return false;
    }

    // Core propagation is computed against the destination's *current*
    // endpoint; if the destination is gone we still charge the sender's
    // uplink (already done) and drop.
    const std::uint32_t dst_slot = index_.find(to);
    Host* dst = live_host_or_count_drop(dst_slot, kAnyEpoch);
    if (dst == nullptr) return true;  // left the sender successfully
    const Endpoint dst_ep = dst->endpoint;

    // Scheduled fault impairments, if armed. Checked before the baseline
    // loss draw so an impairment drop never consumes the baseline's random
    // number — a window that impairs only *other* hosts leaves this
    // sender's stream untouched.
    const ImpairmentOverlay::PairDegradation* degraded = nullptr;
    if (impairments_ != nullptr && impairments_->active()) {
      if (impairments_->category_blocked(sender.endpoint.category) ||
          impairments_->category_blocked(dst_ep.category)) {
        ++stats_.blackout_drops;
        return true;
      }
      const double brownout = impairments_->uplink_loss(from);
      if (brownout > 0.0 && rng_.chance(brownout)) {
        ++stats_.brownout_drops;
        return true;
      }
      degraded = impairments_->pair_degradation(sender.endpoint.category,
                                                dst_ep.category);
      if (degraded != nullptr && degraded->extra_loss > 0.0 &&
          rng_.chance(degraded->extra_loss)) {
        ++stats_.degrade_drops;
        return true;
      }
    }

    if (rng_.chance(latency_.loss_probability(sender.endpoint, dst_ep))) {
      ++stats_.core_drops;
      return true;
    }

    // Cross-ISP packets share the inter-category bottleneck, if modeled.
    sim::Time core_entry = admission.departure;
    if (interconnects_.has_value()) {
      auto crossing = interconnects_->cross(sender.endpoint.category,
                                            dst_ep.category, core_entry,
                                            wire_bytes);
      if (!crossing.admitted) {
        ++stats_.core_drops;
        return true;
      }
      core_entry = crossing.departure;
    }

    sim::Time propagation = latency_.sample_one_way(sender.endpoint, dst_ep,
                                                    rng_);
    if (degraded != nullptr) propagation = propagation + degraded->extra_one_way;
    const sim::Time core_arrival = core_entry + propagation;

    const std::uint32_t p = packets_.acquire();
    Packet& packet = packets_[p];
    packet.payload = std::move(payload);
    packet.from = from;
    packet.to = to;
    packet.src_slot = src_slot;
    packet.dst_slot = dst_slot;
    packet.src_epoch = sender.epoch;
    packet.dst_epoch = dst->epoch;
    packet.sent_at = simulator_.now();
    packet.wire_bytes = wire_bytes;
    simulator_.schedule_at(
        core_arrival, [this, p] { transit(p); }, "net.transit");
    return true;
  }

  const Stats& stats() const override { return stats_; }

 private:
  /// One host slot. A free slot has epoch 0 and no handler or tap.
  struct Host {
    Endpoint endpoint;
    AccessLink link;
    Handler handler;
    Tap tap;
    std::uint64_t epoch = 0;
  };

  /// One in-flight packet, from the send that admits it to its delivery or
  /// drop. The slots and epochs pin the two host incarnations it was sent
  /// between.
  struct Packet {
    Payload payload;
    IpAddress from;
    IpAddress to;
    std::uint32_t src_slot = 0;
    std::uint32_t dst_slot = 0;
    std::uint64_t src_epoch = 0;
    std::uint64_t dst_epoch = 0;
    sim::Time sent_at;  // when the sender handed it to its uplink
    std::uint64_t wire_bytes = 0;
  };

  const Host& host(IpAddress ip) const {
    const std::uint32_t slot = index_.find(ip);
    assert(slot != IpIndex::kNone);
    return hosts_[slot];
  }
  Host& host(IpAddress ip) {
    return const_cast<Host&>(std::as_const(*this).host(ip));
  }

  /// Sentinel for live_host_or_count_drop: accept any incarnation in the
  /// slot. Real epochs start at 1 (epoch_counter_ pre-increments), so 0 can
  /// never pin a concrete incarnation.
  static constexpr std::uint64_t kAnyEpoch = 0;

  /// The single definition of a dead-destination drop. A packet dies here
  /// when its destination IP is unattached at send time (`slot` is
  /// IpIndex::kNone), or, once the packet has been bound to a slot and an
  /// incarnation (`epoch != kAnyEpoch`, i.e. after the send-time lookup),
  /// when that slot's epoch has changed since: the host detached (a free
  /// slot has epoch 0) or the slot now holds a later attach, of this IP or
  /// another. Each packet traverses at most one of the three call sites per
  /// lifetime (send-time lookup, core arrival, downlink exit); a drop ends
  /// the packet, so the categories are mutually exclusive by construction.
  Host* live_host_or_count_drop(std::uint32_t slot, std::uint64_t epoch) {
    if (slot == IpIndex::kNone ||
        (epoch != kAnyEpoch && hosts_[slot].epoch != epoch)) {
      ++stats_.dead_destination_drops;
      return nullptr;
    }
    return &hosts_[slot];
  }

  /// Core arrival: the packet queues at the destination's downlink.
  void transit(std::uint32_t p) {
    Packet& packet = packets_[p];
    Host* dst = live_host_or_count_drop(packet.dst_slot, packet.dst_epoch);
    if (dst == nullptr) {
      packets_.release(p);
      return;
    }
    auto admission =
        dst->link.down().enqueue(simulator_.now(), packet.wire_bytes);
    if (!admission.admitted) {
      ++stats_.downlink_drops;
      packets_.release(p);
      return;
    }
    simulator_.schedule_at(
        admission.departure, [this, p] { arrive(p); }, "net.deliver");
  }

  /// Downlink exit: the packet reaches the destination's taps and handler.
  void arrive(std::uint32_t p) {
    Packet& packet = packets_[p];
    Host* dst = live_host_or_count_drop(packet.dst_slot, packet.dst_epoch);
    if (dst == nullptr) {
      packets_.release(p);
      return;
    }
    ++stats_.packets_delivered;
    const Endpoint* sender = global_tap_ ? sender_endpoint(packet) : nullptr;
    const Delivery d{packet.from, packet.to, std::move(packet.payload),
                     packet.wire_bytes, packet.sent_at};
    packets_.release(p);
    // The sender may have churned out; the global tap skips it then.
    if (sender != nullptr)
      global_tap_(*sender, dst->endpoint, d.payload, d.wire_bytes);
    if (dst->tap)
      dst->tap(Direction::kIncoming, d.to, d.from, d.payload, d.wire_bytes);
    if (dst->handler) dst->handler(d);
  }

  /// The endpoint the global tap reports for a packet's sender: whichever
  /// host holds the sender's IP now, of any incarnation. That is the
  /// sending host itself while its epoch still matches, so only a sender
  /// that detached pays an index lookup.
  const Endpoint* sender_endpoint(const Packet& packet) const {
    std::uint32_t slot = packet.src_slot;
    if (hosts_[slot].epoch != packet.src_epoch) {
      slot = index_.find(packet.from);
      if (slot == IpIndex::kNone) return nullptr;
    }
    return &hosts_[slot].endpoint;
  }

  sim::Simulator& simulator_;
  LatencyModel latency_;
  sim::Rng rng_;
  sim::Time max_backlog_;
  sim::Slab<Host> hosts_;
  IpIndex index_;
  sim::Slab<Packet> packets_;
  std::uint64_t epoch_counter_ = 0;
  Stats stats_;
  GlobalTap global_tap_;
  std::optional<InterconnectFabric> interconnects_;
  const ImpairmentOverlay* impairments_ = nullptr;
};

}  // namespace ppsim::net
