#include "proto/peer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/trace.h"

namespace ppsim::proto {

namespace {
constexpr double kEwmaAlpha = 0.25;  // weight of the newest latency sample
}

Peer::Peer(sim::Simulator& simulator, PeerTransport& network,
           const HostIdentity& identity, ChannelSpec channel,
           net::IpAddress bootstrap, sim::Rng rng, PeerConfig config,
           std::unique_ptr<SelectionPolicy> policy)
    : simulator_(simulator),
      network_(network),
      identity_(identity),
      channel_(std::move(channel)),
      bootstrap_(bootstrap),
      rng_(rng),
      config_(config),
      policy_(policy ? std::move(policy) : make_default_policy()),
      store_(kChunkRetention) {
  network_.attach(identity_.ip, identity_.isp, identity_.category,
                  identity_.profile,
                  [this](const PeerTransport::Delivery& d) { handle(d); });
  alive_ = true;
}

Peer::~Peer() { leave(); }

void Peer::leave() {
  if (!alive_) return;
  for (const auto& [ip, nb] : neighbors_) {
    send(ip, Message{Goodbye{channel_.id}}, /*with_processing_delay=*/false);
  }
  if (sim::TraceSink* trace = simulator_.trace_sink()) {
    sim::TraceEvent ev(simulator_.now(), "peer_leave");
    ev.field("peer", identity_.ip.to_string())
        .field("bytes_down", counters_.bytes_downloaded)
        .field("bytes_up", counters_.bytes_uploaded)
        .field("continuity", counters_.continuity());
    trace->write(ev);
  }
  alive_ = false;
  // Detach after the goodbyes were handed to the uplink; the network keeps
  // per-packet state, so detaching now still lets them out.
  network_.detach(identity_.ip);
}

void Peer::crash() {
  if (!alive_) return;
  if (sim::TraceSink* trace = simulator_.trace_sink()) {
    sim::TraceEvent ev(simulator_.now(), "peer_crash");
    ev.field("peer", identity_.ip.to_string())
        .field("bytes_down", counters_.bytes_downloaded)
        .field("continuity", counters_.continuity());
    trace->write(ev);
  }
  // No goodbyes: neighbors learn of the crash only through their idle
  // timeouts, which is what makes correlated crash bursts stressful.
  alive_ = false;
  network_.detach(identity_.ip);
}

void Peer::join() {
  if (!alive_ || joined_) return;
  joined_ = true;
  join_span_ = simulator_.allocate_span_id();
  if (sim::TraceSink* trace = simulator_.trace_sink()) {
    sim::TraceEvent ev(simulator_.now(), "peer_join");
    ev.field("peer", identity_.ip.to_string())
        .field("isp", net::to_string(identity_.category))
        .field("channel", static_cast<std::uint64_t>(channel_.id))
        .field("nat", config_.behind_nat);
    if (simulator_.causal_tracing()) ev.field("span", join_span_);
    trace->write(ev);
  }
  // DNS resolution of the bootstrap/channel server names.
  const sim::Time dns = sim::Time::micros(
      rng_.uniform_int(kDnsDelayMin.as_micros(), kDnsDelayMax.as_micros()));
  simulator_.schedule(dns, [this] { contact_bootstrap(); }, "peer.join");
}

void Peer::contact_bootstrap() {
  if (!alive_) return;
  JoinQuery q{channel_.id};
  q.span = SpanContext{simulator_.allocate_span_id(), join_span_};
  send(bootstrap_, Message{q});
  // Retry until the join reply arrives (UDP may drop it).
  simulator_.schedule(
      sim::Time::seconds(3),
      [this] {
        if (alive_ && trackers_.empty()) contact_bootstrap();
      },
      "peer.join");
}

void Peer::on_join_reply(const JoinReply& r) {
  if (!trackers_.empty()) return;  // duplicate reply (retry raced)
  source_ = r.source;
  trackers_ = r.trackers;
  if (simulator_.causal_tracing()) {
    join_reply_span_ = r.span.id;
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "join_reply");
      ev.field("peer", identity_.ip.to_string())
          .field("trackers", static_cast<std::uint64_t>(trackers_.size()))
          .field("span", r.span.id)
          .field("parent", r.span.parent);
      trace->write(ev);
    }
  }

  // The source is a first-class candidate: new joiners may pull from it
  // until real neighbors are found.
  note_origins({r.source}, "bootstrap", bootstrap_, join_reply_span_);
  learn_candidates({source_}, /*from_tracker=*/false);

  query_trackers(/*all=*/true);
  schedule_tracker_round();

  // Steady-state machinery.
  schedule_periodic(simulator_, config_.gossip_period,
                    [this] {
                      if (!alive_) return false;
                      gossip_round();
                      return true;
                    },
                    "peer.gossip");
  schedule_periodic(simulator_, kTopupPeriod,
                    [this] {
                      if (!alive_) return false;
                      topup_connections();
                      return true;
                    },
                    "peer.topup");
  schedule_periodic(simulator_, kRequestTick,
                    [this] {
                      if (!alive_) return false;
                      request_tick();
                      return true;
                    },
                    "peer.request");
  schedule_periodic(simulator_, kBuffermapPeriod,
                    [this] {
                      if (!alive_) return false;
                      announce_buffer_maps();
                      return true;
                    },
                    "peer.buffermap");
  schedule_periodic(simulator_, sim::Time::seconds(1),
                    [this] {
                      if (!alive_) return false;
                      sweep_timeouts();
                      return true;
                    },
                    "peer.sweep");
  schedule_periodic(simulator_, config_.optimize_period,
                    [this] {
                      if (!alive_) return false;
                      optimize_neighborhood();
                      return true;
                    },
                    "peer.optimize");
}

void Peer::optimize_neighborhood() {
  if (neighbors_.size() <= static_cast<std::size_t>(config_.min_neighbors))
    return;
  const sim::Time now = simulator_.now();
  // First trim any overflow above max_neighbors (inbound slack), slowest
  // first and regardless of grace, so headroom for new inbound handshakes
  // keeps regenerating and late joiners are not locked out of a saturated
  // swarm.
  while (neighbors_.size() > static_cast<std::size_t>(config_.max_neighbors)) {
    net::IpAddress overflow_victim;
    double overflow_worst = -1;
    for (const auto& [ip, nb] : neighbors_) {
      if (nb.rtt_s > overflow_worst) {
        overflow_worst = nb.rtt_s;
        overflow_victim = ip;
      }
    }
    ++counters_.neighbors_dropped_optimized;
    drop_neighbor(overflow_victim, /*notify=*/true);
  }
  if (neighbors_.size() <= static_cast<std::size_t>(config_.min_neighbors))
    return;
  net::IpAddress victim;
  if (policy_->latency_optimize()) {
    // Drop the slowest mature neighbor; its slot is refilled from referred
    // candidates on the next list arrival / top-up tick.
    double best_rtt = std::numeric_limits<double>::infinity();
    double worst_latency = -1;
    for (const auto& [ip, nb] : neighbors_) {
      best_rtt = std::min(best_rtt, nb.rtt_s);
      if (now - nb.connected_at < config_.optimize_grace) continue;
      if (nb.rtt_s > worst_latency) {
        worst_latency = nb.rtt_s;
        victim = ip;
      }
    }
    if (worst_latency < 0) return;
    // Churn damping: displacement is only worthwhile when the victim is
    // actually distant relative to the best the neighborhood offers.
    // Without this, a fully near/equal neighborhood rotates a member every
    // round on estimate noise alone, and the victim choice degenerates to
    // a tie-break on traversal order.
    if (worst_latency <= std::max(1.5 * best_rtt, best_rtt + 0.03)) return;
  } else {
    // Distance-blind turnover (BitTorrent's optimistic-unchoke analog):
    // rotate a random mature neighbor.
    std::vector<net::IpAddress> mature;
    for (const auto& [ip, nb] : neighbors_) {
      if (now - nb.connected_at >= config_.optimize_grace) mature.push_back(ip);
    }
    if (mature.empty()) return;
    victim = mature[static_cast<std::size_t>(rng_.next_below(mature.size()))];
  }
  ++counters_.neighbors_dropped_optimized;
  drop_neighbor(victim, /*notify=*/true);
}

void Peer::schedule_tracker_round() {
  const bool healthy =
      neighbors_.size() >= static_cast<std::size_t>(config_.healthy_neighbors);
  sim::Time period = healthy ? kTrackerPeriodSteady : kTrackerPeriodInitial;
  // Dark-tracker backoff: once several consecutive all-group sweeps have
  // gone unanswered (the region is unreachable, not just lossy), probe at
  // an exponentially growing period instead of hammering the initial
  // cadence. Any tracker reply resets the streak.
  if (tracker_silent_rounds_ >= config_.tracker_backoff_after) {
    const double factor =
        std::pow(kTrackerBackoffFactor,
                 tracker_silent_rounds_ - config_.tracker_backoff_after + 1);
    period = std::min(sim::scale(period, factor), kTrackerBackoffMax);
  }
  simulator_.schedule(
      period,
      [this] {
        if (!alive_) return;
        const bool now_healthy =
            neighbors_.size() >=
            static_cast<std::size_t>(config_.healthy_neighbors);
        // Unhealthy peers sweep every tracker group; healthy ones ping a
        // single tracker to stay registered (and discoverable).
        if (!now_healthy) ++tracker_silent_rounds_;
        query_trackers(/*all=*/!now_healthy);
        schedule_tracker_round();
      },
      "peer.tracker");
}

void Peer::query_trackers(bool all) {
  if (trackers_.empty()) return;
  // One span per round: the queries of a sweep are copies of the same
  // operation, so each reply parents back to the round that asked.
  TrackerQuery q{channel_.id};
  q.span = SpanContext{simulator_.allocate_span_id(), join_reply_span_};
  if (sim::TraceSink* trace = simulator_.trace_sink()) {
    sim::TraceEvent ev(simulator_.now(), "tracker_query");
    ev.field("peer", identity_.ip.to_string())
        .field("all", all)
        .field("trackers",
               static_cast<std::uint64_t>(all ? trackers_.size() : 1));
    if (simulator_.causal_tracing())
      ev.field("span", q.span.id).field("parent", q.span.parent);
    trace->write(ev);
  }
  if (all) {
    for (const auto& t : trackers_) {
      send(t, Message{q});
      ++counters_.tracker_queries_sent;
    }
  } else {
    const auto& t =
        trackers_[static_cast<std::size_t>(rng_.next_below(trackers_.size()))];
    send(t, Message{q});
    ++counters_.tracker_queries_sent;
  }
}

void Peer::learn_candidates(const std::vector<net::IpAddress>& ips,
                            bool from_tracker) {
  const auto limit = static_cast<std::size_t>(config_.candidate_pool_limit);
  for (const auto& ip : ips) {
    if (ip == identity_.ip || ip.is_unspecified()) continue;
    if (from_tracker)
      ++counters_.ips_learned_from_trackers;
    else
      ++counters_.ips_learned_from_peers;
    const auto at =
        std::lower_bound(pool_sorted_.begin(), pool_sorted_.end(), ip);
    if (at != pool_sorted_.end() && *at == ip) continue;
    pool_sorted_.insert(at, ip);
    pool_fifo_.push_back(ip);
    while (candidate_pool_size() > limit) {
      const net::IpAddress evicted = pool_fifo_[pool_head_++];
      if (simulator_.causal_tracing()) origins_.erase(evicted);
      pool_sorted_.erase(
          std::lower_bound(pool_sorted_.begin(), pool_sorted_.end(), evicted));
    }
    if (pool_head_ >= limit) {
      pool_fifo_.erase(pool_fifo_.begin(),
                       pool_fifo_.begin() +
                           static_cast<std::ptrdiff_t>(pool_head_));
      pool_head_ = 0;
    }
  }
}

void Peer::note_origins(const std::vector<net::IpAddress>& ips,
                        const char* via, net::IpAddress introducer,
                        std::uint64_t span) {
  if (!simulator_.causal_tracing()) return;
  for (const auto& ip : ips) {
    if (ip == identity_.ip || ip.is_unspecified()) continue;
    origins_.emplace(ip, CandidateOrigin{span, introducer, via});
  }
}

std::span<const net::IpAddress> Peer::excluded_targets() {
  excluded_.clear();
  excluded_.push_back(identity_.ip);
  excluded_.push_back(bootstrap_);
  excluded_.insert(excluded_.end(), trackers_.begin(), trackers_.end());
  for (const auto& [ip, nb] : neighbors_) excluded_.push_back(ip);
  for (const auto& [ip, t] : pending_connects_) excluded_.push_back(ip);
  std::sort(excluded_.begin(), excluded_.end());
  return excluded_;
}

void Peer::attempt_connections(const std::vector<net::IpAddress>& fresh) {
  if (!policy_->connect_on_arrival()) return;
  // Handshakes are raced: attempts are budgeted against *established*
  // neighbors only, so overlapping batches compete for the remaining slots
  // and the fastest responders win them. This is the mechanism the paper
  // infers: "a peer always tries to connect to the listed peers as soon as
  // the list is received", and same-ISP peers answer first.
  const std::size_t have = neighbors_.size();
  if (have >= static_cast<std::size_t>(config_.max_neighbors)) return;
  // Deliberately attempt a full batch even when only one slot is free: the
  // surplus handshakes ARE the race, and the late completions are turned
  // away (connects_lost_race) once the fastest responders took the slots.
  const std::size_t want = static_cast<std::size_t>(config_.connect_batch);
  try_connect(policy_->choose(fresh, candidate_pool(), excluded_targets(),
                              want, rng_));
}

void Peer::topup_connections() {
  const std::size_t have = neighbors_.size() + pending_connects_.size();
  if (have >= static_cast<std::size_t>(config_.min_neighbors)) return;
  const std::size_t want =
      static_cast<std::size_t>(config_.min_neighbors) - have;
  try_connect(policy_->choose({}, candidate_pool(), excluded_targets(),
                              std::min<std::size_t>(want, 4), rng_));
}

void Peer::try_connect(const std::vector<net::IpAddress>& targets) {
  for (const auto& ip : targets) {
    if (neighbors_.contains(ip) || pending_connects_.contains(ip)) continue;
    pending_connects_[ip] = simulator_.now();
    ++counters_.connects_attempted;
    ConnectQuery q{channel_.id};
    CandidateOrigin origin;
    if (simulator_.causal_tracing()) {
      if (auto it = origins_.find(ip); it != origins_.end())
        origin = it->second;
      q.span = SpanContext{simulator_.allocate_span_id(),
                           origin.span != 0 ? origin.span : join_span_};
      pending_connect_spans_[ip] = PendingConnectSpan{q.span.id, origin};
    }
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "connect_attempt");
      ev.field("peer", identity_.ip.to_string())
          .field("to", ip.to_string());
      if (simulator_.causal_tracing()) {
        ev.field("span", q.span.id)
            .field("parent", q.span.parent)
            .field("via", origin.via)
            .field("introducer", origin.introducer.to_string());
      }
      trace->write(ev);
    }
    send(ip, Message{q});
  }
}

std::vector<net::IpAddress> Peer::my_peer_list() const {
  // "Recently connected peers": current neighbors first, then peers that
  // recently left the neighborhood, capped at the protocol's 60.
  std::vector<net::IpAddress> list;
  list.reserve(neighbors_.size());
  for (const auto& [ip, nb] : neighbors_) list.push_back(ip);
  for (const auto& ip : recent_neighbors_) {
    if (list.size() >= static_cast<std::size_t>(config_.max_list_size)) break;
    if (std::find(list.begin(), list.end(), ip) == list.end())
      list.push_back(ip);
  }
  if (list.size() > static_cast<std::size_t>(config_.max_list_size))
    list.resize(static_cast<std::size_t>(config_.max_list_size));
  return list;
}

void Peer::gossip_round() {
  if (!policy_->use_neighbor_referral()) return;
  if (neighbors_.empty()) return;
  std::vector<net::IpAddress> ips;
  ips.reserve(neighbors_.size());
  for (const auto& [ip, nb] : neighbors_) ips.push_back(ip);
  auto picked = rng_.sample(
      std::move(ips),
      static_cast<std::size_t>(std::max(config_.gossip_fanout, 1)));
  PeerListQuery q{channel_.id, my_peer_list()};
  q.span = SpanContext{simulator_.allocate_span_id(), join_span_};
  if (sim::TraceSink* trace = simulator_.trace_sink()) {
    sim::TraceEvent ev(simulator_.now(), "gossip_query");
    ev.field("peer", identity_.ip.to_string())
        .field("fanout", static_cast<std::uint64_t>(picked.size()));
    if (simulator_.causal_tracing())
      ev.field("span", q.span.id).field("parent", q.span.parent);
    trace->write(ev);
  }
  for (const auto& ip : picked) {
    ++counters_.gossip_queries_sent;
    pending_list_[ip] = simulator_.now();
    send(ip, Message{q});
  }
}

void Peer::sweep_timeouts() {
  const sim::Time now = simulator_.now();

  // Handshakes that never completed.
  for (auto it = pending_connects_.begin(); it != pending_connects_.end();) {
    if (now - it->second > kConnectTimeout) {
      ++counters_.connects_timed_out;
      if (sim::TraceSink* trace = simulator_.trace_sink()) {
        sim::TraceEvent ev(now, "connect_result");
        ev.field("peer", identity_.ip.to_string())
            .field("from", it->first.to_string())
            .field("outcome", "timeout");
        if (simulator_.causal_tracing()) {
          PendingConnectSpan pcs;
          if (auto ps = pending_connect_spans_.find(it->first);
              ps != pending_connect_spans_.end())
            pcs = ps->second;
          ev.field("span", pcs.span)
              .field("via", pcs.origin.via)
              .field("introducer", pcs.origin.introducer.to_string());
        }
        trace->write(ev);
      }
      if (simulator_.causal_tracing()) pending_connect_spans_.erase(it->first);
      it = pending_connects_.erase(it);
    } else {
      ++it;
    }
  }

  // Data requests that never came back: free the slot so the chunk can be
  // rescheduled to another neighbor on the next tick.
  for (auto it = pending_data_.begin(); it != pending_data_.end();) {
    if (now - it->second.sent_at > kRequestTimeout) {
      auto nb = neighbors_.find(it->second.target);
      if (nb != neighbors_.end()) {
        nb->second.in_flight = std::max(0, nb->second.in_flight - 1);
        // Penalize the estimate so the scheduler shies away from it.
        nb->second.service_s = std::min(5.0, nb->second.service_s * 1.5);
      }
      ++counters_.request_timeouts;
      it = pending_data_.erase(it);
    } else {
      ++it;
    }
  }

  // Idle neighbors.
  std::vector<net::IpAddress> idle;
  for (const auto& [ip, nb] : neighbors_) {
    if (now - nb.last_seen > config_.neighbor_idle_timeout) idle.push_back(ip);
  }
  for (const auto& ip : idle) {
    ++counters_.neighbors_dropped_idle;
    drop_neighbor(ip, /*notify=*/true);
  }

  // Blackout recovery: an established peer stripped of every neighbor (a
  // regional outage took them all) mounts an emergency re-acquisition
  // instead of waiting out the regular tracker round — an immediate
  // all-group sweep plus a connect burst from the candidate pool.
  if (neighbors_.empty()) {
    if (had_neighbors_ && !isolated_) {
      isolated_ = true;
      isolated_since_ = now;
    }
    if (isolated_ && now - isolated_since_ >= kReacquireTimeout &&
        now - last_reacquire_ >= kReacquireCooldown) {
      last_reacquire_ = now;
      ++emergency_reacquires_;
      if (sim::TraceSink* trace = simulator_.trace_sink()) {
        sim::TraceEvent ev(now, "peer_reacquire");
        ev.field("peer", identity_.ip.to_string())
            .field("isolated_s", (now - isolated_since_).as_seconds())
            .field("pool", static_cast<std::uint64_t>(candidate_pool_size()));
        trace->write(ev);
      }
      query_trackers(/*all=*/true);
      try_connect(policy_->choose(
          {}, candidate_pool(), excluded_targets(),
          static_cast<std::size_t>(config_.connect_batch), rng_));
    }
  } else {
    isolated_ = false;
  }
}

void Peer::maybe_start_playback() {
  if (playback_started_ || live_edge_ == 0) return;
  const std::uint64_t buffer_chunks = static_cast<std::uint64_t>(
      kStartupBuffer.as_seconds() / channel_.chunk_duration().as_seconds());
  // Begin behind the live edge by the startup buffer (or at chunk 1 early
  // in the broadcast when less history exists).
  playback_next_ = live_edge_ > buffer_chunks ? live_edge_ - buffer_chunks : 1;
  playback_started_ = true;
  sim::TraceSink* trace = simulator_.trace_sink();
  if (simulator_.causal_tracing() && trace != nullptr) {
    sim::TraceEvent ev(simulator_.now(), "playback_start");
    ev.field("peer", identity_.ip.to_string())
        .field("position", static_cast<std::uint64_t>(playback_next_))
        .field("edge", static_cast<std::uint64_t>(live_edge_))
        .field("span", simulator_.allocate_span_id())
        .field("parent", join_span_);
    trace->write(ev);
  }
  schedule_periodic(simulator_, channel_.chunk_duration(),
                    [this] {
                      if (!alive_) return false;
                      playback_tick();
                      return true;
                    },
                    "peer.playback");
}

void Peer::playback_tick() {
  if (playback_next_ == 0) playback_next_ = 1;
  // Never play past the live edge; if we catch up (edge stalled), wait.
  if (playback_next_ > live_edge_) return;
  if (store_.has(playback_next_))
    ++counters_.chunks_played;
  else
    ++counters_.chunks_missed;
  ++playback_next_;
}

void Peer::request_tick() {
  maybe_start_playback();
  if (!playback_started_) return;

  const ChunkSeq from = playback_next_ == 0 ? 1 : playback_next_;
  const ChunkSeq to =
      std::min(live_edge_, from + static_cast<ChunkSeq>(kWindowChunks));

  int issued = 0;
  const int kMaxPerTick = 10;
  // A tick changes no neighbor's service time, so each neighbor's
  // preference is computed at most once per tick, when first needed. It is
  // the same double the expression gives at every use, and the division by
  // 1 + in_flight stays at the use, so every weight and every draw is
  // bit-identical to computing both per chunk.
  preference_.assign(neighbors_.size(), -1.0);
  for (ChunkSeq seq = from; seq <= to && issued < kMaxPerTick; ++seq) {
    if (store_.has(seq) || pending_data_.contains(seq)) continue;

    // Neighbors that advertise the chunk and still have pipeline room.
    holders_.clear();
    weights_.clear();
    std::size_t i = 0;
    for (auto& [ip, nb] : neighbors_) {
      double& preference = preference_[i++];
      if (nb.in_flight >= kPipelinePerNeighbor) continue;
      if (!nb.map.has(seq)) continue;
      holders_.push_back(ip);
      // Latency-based preference: the fastest neighbors get most requests.
      // Dividing by outstanding requests keeps the pipeline balanced so a
      // single fast neighbor cannot absorb the whole stream.
      if (preference < 0) {
        const double lat = std::max(nb.service_s, 1e-3);
        preference = std::pow(1.0 / lat, config_.latency_selectivity);
      }
      weights_.push_back(preference / (1.0 + nb.in_flight));
    }
    if (holders_.empty()) continue;
    const std::size_t pick = rng_.weighted_index(weights_);
    const net::IpAddress target = holders_[pick];

    Neighbor& nb = neighbors_.at(target);
    ++nb.in_flight;
    pending_data_[seq] = PendingData{target, simulator_.now()};
    ++counters_.data_requests_sent;
    ++issued;
    DataQuery q{channel_.id, seq};
    if (simulator_.causal_tracing()) {
      // Parent on the handshake that established the serving neighbor, so
      // the data plane chains back to the referral that made it possible.
      q.span = SpanContext{
          simulator_.allocate_span_id(),
          nb.intro_span != 0 ? nb.intro_span : join_span_};
    }
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "data_request");
      ev.field("peer", identity_.ip.to_string())
          .field("to", target.to_string())
          .field("chunk", static_cast<std::uint64_t>(seq));
      if (simulator_.causal_tracing())
        ev.field("span", q.span.id).field("parent", q.span.parent);
      trace->write(ev);
    }
    send(target, Message{q}, /*with_processing_delay=*/false);
  }
}

void Peer::announce_buffer_maps() {
  if (store_.empty() || neighbors_.empty()) return;
  BufferMapAnnounce ann{channel_.id, store_.advertised()};
  for (const auto& [ip, nb] : neighbors_) {
    send(ip, Message{ann}, /*with_processing_delay=*/false);
  }
}

void Peer::send(net::IpAddress to, Message m, bool with_processing_delay) {
  const std::uint64_t bytes = wire_size(m);
  if (!with_processing_delay) {
    network_.send(identity_.ip, to, std::move(m), bytes);
    return;
  }
  // Application-layer processing before the packet reaches the socket.
  const sim::Time proc = sim::Time::micros(rng_.uniform_int(500, 3000));
  simulator_.schedule(
      proc,
      [this, to, m = std::move(m), bytes]() mutable {
        if (!alive_) return;
        network_.send(identity_.ip, to, std::move(m), bytes);
      },
      "peer.send");
}

void Peer::add_neighbor(net::IpAddress ip, double initial_latency_s,
                        BufferMap map) {
  Neighbor nb;
  nb.connected_at = simulator_.now();
  nb.last_seen = simulator_.now();
  nb.rtt_s = std::max(initial_latency_s, 1e-3);
  // A remembered measurement beats the blind handshake default.
  if (auto cached = recent_rtt_.find(ip); cached != recent_rtt_.end())
    nb.rtt_s = std::min(nb.rtt_s, std::max(cached->second, 1e-3));
  // Until measured, assume service latency tracks proximity.
  nb.service_s = nb.rtt_s + 0.05;
  nb.map = std::move(map);
  neighbors_[ip] = std::move(nb);
  had_neighbors_ = true;
  isolated_ = false;
}

void Peer::drop_neighbor(net::IpAddress ip, bool notify) {
  auto it = neighbors_.find(ip);
  if (it == neighbors_.end()) return;
  if (notify) send(ip, Message{Goodbye{channel_.id}});
  recent_rtt_[ip] = it->second.rtt_s;
  neighbors_.erase(it);
  recent_neighbors_.push_front(ip);
  while (recent_neighbors_.size() > 32) {
    const net::IpAddress evicted = recent_neighbors_.back();
    recent_neighbors_.pop_back();
    if (std::find(recent_neighbors_.begin(), recent_neighbors_.end(),
                  evicted) == recent_neighbors_.end())
      recent_rtt_.erase(evicted);
  }
  // Outstanding requests to a dropped neighbor will never be answered.
  pending_list_.erase(ip);
  pending_data_.erase_if(
      [ip](const auto& kv) { return kv.second.target == ip; });
}

std::vector<net::IpAddress> Peer::neighbor_ips() const {
  std::vector<net::IpAddress> out;
  out.reserve(neighbors_.size());
  for (const auto& [ip, nb] : neighbors_) out.push_back(ip);
  return out;
}

double Peer::neighbor_latency_estimate(net::IpAddress ip) const {
  auto it = neighbors_.find(ip);
  return it == neighbors_.end() ? -1.0 : it->second.rtt_s;
}

std::size_t Peer::approx_live_bytes() const {
  // Every container here but the deque is one contiguous buffer.
  const auto buffer = [](const auto& c) {
    return c.capacity() * sizeof(*c.begin());
  };
  std::size_t total_bytes = 0;
  total_bytes += buffer(origins_) + buffer(pending_connect_spans_);
  total_bytes += buffer(trackers_);
  total_bytes += buffer(pool_fifo_) + buffer(pool_sorted_) + buffer(excluded_);
  total_bytes += buffer(neighbors_);
  for (const auto& [ip, n] : neighbors_)
    total_bytes += n.map.have.capacity() / 8;  // vector<bool> packs 8 per byte
  total_bytes += buffer(pending_connects_) + buffer(pending_data_) +
                 buffer(pending_list_) + buffer(recent_rtt_);
  total_bytes += recent_neighbors_.size() * sizeof(net::IpAddress);
  total_bytes += store_.approx_bytes();
  return total_bytes;
}

void Peer::handle(const PeerTransport::Delivery& delivery) {
  if (!alive_) return;
  const net::IpAddress from = delivery.from;

  if (const auto* jr = std::get_if<JoinReply>(&delivery.payload)) {
    if (jr->channel == channel_.id) on_join_reply(*jr);
    return;
  }

  if (const auto* tr = std::get_if<TrackerReply>(&delivery.payload)) {
    if (tr->channel != channel_.id) return;
    ++counters_.tracker_replies;
    tracker_silent_rounds_ = 0;  // the region answers; stop backing off
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "tracker_reply");
      ev.field("peer", identity_.ip.to_string())
          .field("from", from.to_string())
          .field("peers", static_cast<std::uint64_t>(tr->peers.size()));
      if (simulator_.causal_tracing())
        ev.field("span", tr->span.id).field("parent", tr->span.parent);
      trace->write(ev);
    }
    note_origins(tr->peers, "tracker", from, tr->span.id);
    learn_candidates(tr->peers, /*from_tracker=*/true);
    attempt_connections(tr->peers);
    return;
  }

  if (const auto* cq = std::get_if<ConnectQuery>(&delivery.payload)) {
    if (cq->channel != channel_.id) return;
    // NATed clients never see unsolicited connection attempts; the
    // initiator's handshake times out, exactly like a 2008 home router
    // dropping unsolicited UDP.
    if (config_.behind_nat && !neighbors_.contains(from)) return;
    // Accept with some slack over max_neighbors so handshakes stay roughly
    // symmetric; beyond that, reject.
    const bool accept =
        neighbors_.contains(from) ||
        neighbors_.size() <
            static_cast<std::size_t>(config_.max_neighbors) + 4;
    if (accept) {
      if (!neighbors_.contains(from)) {
        add_neighbor(from, /*initial_latency_s=*/0.6, BufferMap{});
        ++counters_.inbound_accepted;
        if (simulator_.causal_tracing()) {
          Neighbor& n = neighbors_[from];
          n.intro_span = cq->span.id;
          n.intro_via = "inbound";
          n.introducer = from;
        }
      }
    } else {
      ++counters_.inbound_rejected;
    }
    ConnectReply r;
    r.channel = channel_.id;
    r.accepted = accept;
    if (accept) r.map = store_.advertised();
    r.span = SpanContext{simulator_.allocate_span_id(), cq->span.id};
    send(from, Message{std::move(r)});
    return;
  }

  if (const auto* cr = std::get_if<ConnectReply>(&delivery.payload)) {
    if (cr->channel != channel_.id) return;
    auto pending = pending_connects_.find(from);
    if (pending == pending_connects_.end()) return;  // late or unsolicited
    const double handshake_s =
        (simulator_.now() - pending->second).as_seconds();
    pending_connects_.erase(pending);
    PendingConnectSpan pcs;
    if (simulator_.causal_tracing()) {
      if (auto ps = pending_connect_spans_.find(from);
          ps != pending_connect_spans_.end()) {
        pcs = ps->second;
        pending_connect_spans_.erase(ps);
      }
    }
    const auto trace_connect = [&](const char* outcome) {
      sim::TraceSink* trace = simulator_.trace_sink();
      if (trace == nullptr) return;
      sim::TraceEvent ev(simulator_.now(), "connect_result");
      ev.field("peer", identity_.ip.to_string())
          .field("from", from.to_string())
          .field("outcome", outcome)
          .field("handshake_s", handshake_s);
      if (simulator_.causal_tracing()) {
        ev.field("span", cr->span.id)
            .field("parent", cr->span.parent)
            .field("via", pcs.origin.via)
            .field("introducer", pcs.origin.introducer.to_string());
      }
      trace->write(ev);
    };
    if (!cr->accepted) {
      ++counters_.connects_rejected;
      trace_connect("rejected");
      return;
    }
    if (neighbors_.size() >= static_cast<std::size_t>(config_.max_neighbors)) {
      // Lost the race: faster responders already filled the slots.
      ++counters_.connects_lost_race;
      trace_connect("lost_race");
      send(from, Message{Goodbye{channel_.id}});
      return;
    }
    ++counters_.connects_accepted;
    trace_connect("accepted");
    add_neighbor(from, handshake_s, cr->map);
    if (simulator_.causal_tracing()) {
      Neighbor& n = neighbors_[from];
      n.intro_span = pcs.span;
      n.intro_via = pcs.origin.via;
      n.introducer = pcs.origin.introducer;
    }
    live_edge_ = std::max(live_edge_, cr->map.highest());
    // Paper: upon establishing a connection, first ask the new neighbor for
    // its peer list, then request data (data flows on the next tick).
    if (policy_->use_neighbor_referral()) {
      ++counters_.gossip_queries_sent;
      pending_list_[from] = simulator_.now();
      PeerListQuery plq{channel_.id, my_peer_list()};
      plq.span = SpanContext{simulator_.allocate_span_id(), cr->span.id};
      send(from, Message{std::move(plq)});
    }
    return;
  }

  if (const auto* plq = std::get_if<PeerListQuery>(&delivery.payload)) {
    if (plq->channel != channel_.id) return;
    ++counters_.gossip_queries_answered;
    // The requester encloses its own list; both sides learn.
    note_origins(plq->my_peers, "gossip", from, plq->span.id);
    learn_candidates(plq->my_peers, /*from_tracker=*/false);
    if (auto it = neighbors_.find(from); it != neighbors_.end())
      it->second.last_seen = simulator_.now();
    PeerListReply r{channel_.id, my_peer_list()};
    r.span = SpanContext{simulator_.allocate_span_id(), plq->span.id};
    send(from, Message{std::move(r)});
    return;
  }

  if (const auto* plr = std::get_if<PeerListReply>(&delivery.payload)) {
    if (plr->channel != channel_.id) return;
    ++counters_.gossip_replies_received;
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "gossip_reply");
      ev.field("peer", identity_.ip.to_string())
          .field("from", from.to_string())
          .field("peers", static_cast<std::uint64_t>(plr->peers.size()));
      if (simulator_.causal_tracing())
        ev.field("span", plr->span.id).field("parent", plr->span.parent);
      trace->write(ev);
    }
    if (auto it = neighbors_.find(from); it != neighbors_.end()) {
      it->second.last_seen = simulator_.now();
      if (auto pend = pending_list_.find(from); pend != pending_list_.end()) {
        const double sample = (simulator_.now() - pend->second).as_seconds();
        it->second.rtt_s = (1 - kEwmaAlpha) * it->second.rtt_s +
                           kEwmaAlpha * sample;
        pending_list_.erase(pend);
      }
    }
    note_origins(plr->peers, "gossip", from, plr->span.id);
    learn_candidates(plr->peers, /*from_tracker=*/false);
    // The observed PPLive behaviour: connect to listed peers immediately.
    attempt_connections(plr->peers);
    return;
  }

  if (const auto* ann = std::get_if<BufferMapAnnounce>(&delivery.payload)) {
    if (ann->channel != channel_.id) return;
    auto it = neighbors_.find(from);
    if (it == neighbors_.end()) return;
    it->second.map = ann->map;
    it->second.last_seen = simulator_.now();
    live_edge_ = std::max(live_edge_, ann->map.highest());
    return;
  }

  if (const auto* dq = std::get_if<DataQuery>(&delivery.payload)) {
    if (dq->channel != channel_.id) return;
    if (auto it = neighbors_.find(from); it != neighbors_.end())
      it->second.last_seen = simulator_.now();
    if (!store_.has(dq->chunk)) {
      ++counters_.data_requests_unserveable;
      return;
    }
    ++counters_.data_requests_served;
    counters_.bytes_uploaded += channel_.chunk_bytes();
    DataReply r{channel_.id, dq->chunk, channel_.subpieces_per_chunk,
                channel_.chunk_bytes()};
    r.span = SpanContext{simulator_.allocate_span_id(), dq->span.id};
    if (sim::TraceSink* trace = simulator_.trace_sink()) {
      sim::TraceEvent ev(simulator_.now(), "data_serve");
      ev.field("peer", identity_.ip.to_string())
          .field("to", from.to_string())
          .field("chunk", static_cast<std::uint64_t>(dq->chunk))
          .field("bytes", channel_.chunk_bytes());
      if (simulator_.causal_tracing())
        ev.field("span", r.span.id).field("parent", r.span.parent);
      trace->write(ev);
    }
    send(from, Message{r});
    return;
  }

  if (const auto* dr = std::get_if<DataReply>(&delivery.payload)) {
    if (dr->channel != channel_.id) return;
    auto pending = pending_data_.find(dr->chunk);
    auto nb = neighbors_.find(from);
    if (pending != pending_data_.end() && pending->second.target == from) {
      if (nb != neighbors_.end()) {
        Neighbor& n = nb->second;
        n.in_flight = std::max(0, n.in_flight - 1);
        const double lat = (simulator_.now() - pending->second.sent_at)
                               .as_seconds();
        n.service_s = (1 - kEwmaAlpha) * n.service_s + kEwmaAlpha * lat;
        n.last_seen = simulator_.now();
      }
      pending_data_.erase(pending);
    }
    ++counters_.data_replies_received;
    if (store_.insert(dr->chunk)) {
      counters_.bytes_downloaded += dr->payload_bytes;
      live_edge_ = std::max(live_edge_, dr->chunk);
      sim::TraceSink* trace = simulator_.trace_sink();
      if (simulator_.causal_tracing() && trace != nullptr) {
        sim::TraceEvent ev(simulator_.now(), "chunk_delivered");
        ev.field("peer", identity_.ip.to_string())
            .field("from", from.to_string())
            .field("chunk", static_cast<std::uint64_t>(dr->chunk))
            .field("span", dr->span.id)
            .field("parent", dr->span.parent);
        trace->write(ev);
      }
    } else {
      ++counters_.duplicate_chunks;
    }
    return;
  }

  if (std::holds_alternative<Goodbye>(delivery.payload)) {
    drop_neighbor(from, /*notify=*/false);
    return;
  }
}

}  // namespace ppsim::proto
