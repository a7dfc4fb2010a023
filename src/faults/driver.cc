#include "faults/driver.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace ppsim::faults {

FaultDriver::FaultDriver(sim::Simulator& simulator,
                         net::ImpairmentOverlay& overlay, FaultHost& host,
                         FaultPlan plan, std::uint64_t seed)
    : simulator_(simulator),
      overlay_(overlay),
      host_(host),
      plan_(std::move(plan)),
      rng_(seed),
      browned_out_(plan_.windows.size()) {}

void FaultDriver::arm() {
  if (armed_) return;
  armed_ = true;
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    simulator_.schedule_at(w.start, [this, i] { apply(i); }, "fault.begin");
    // Instantaneous windows (churn bursts) have nothing to revert.
    if (w.end > w.start)
      simulator_.schedule_at(w.end, [this, i] { revert(i); }, "fault.end");
  }
}

std::vector<net::IpAddress> FaultDriver::sample_peers(double fraction) {
  const std::vector<net::IpAddress> alive = host_.alive_audience_ips();
  const auto want = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(alive.size())));
  std::vector<net::IpAddress> picked = rng_.sample(alive, want);
  // sample() randomizes order; apply in ascending-IP order so the event
  // sequence of a burst is deterministic and readable in traces.
  std::sort(picked.begin(), picked.end());
  return picked;
}

void FaultDriver::apply(std::size_t index) {
  const FaultWindow& w = plan_.windows[index];
  std::uint64_t affected = 0;
  switch (w.kind) {
    case FaultKind::kTrackerOutage:
      host_.set_tracker_dark(w.tracker_group, true);
      break;
    case FaultKind::kBootstrapOutage:
      host_.set_bootstrap_dark(true);
      break;
    case FaultKind::kLinkDegrade: {
      net::ImpairmentOverlay::PairDegradation d;
      d.extra_loss = w.loss;
      // The plan speaks round-trip; the overlay impairs each direction.
      d.extra_one_way = sim::scale(w.added_rtt, 0.5);
      overlay_.set_pair_degradation(w.category_a, w.category_b, d);
      break;
    }
    case FaultKind::kBlackout:
      overlay_.set_category_blocked(w.category_a, true);
      break;
    case FaultKind::kChurnBurst: {
      const auto victims = sample_peers(w.fraction);
      for (const auto& ip : victims) host_.crash_peer(ip);
      affected = victims.size();
      peers_crashed_ += affected;
      burst_applied_ = true;
      break;
    }
    case FaultKind::kUplinkBrownout: {
      auto victims = sample_peers(w.fraction);
      for (const auto& ip : victims) overlay_.set_uplink_loss(ip, w.loss);
      affected = victims.size();
      browned_out_[index] = std::move(victims);
      break;
    }
  }
  ++windows_applied_;
  emit("fault_begin", index, affected);
}

void FaultDriver::revert(std::size_t index) {
  const FaultWindow& w = plan_.windows[index];
  std::uint64_t affected = 0;
  switch (w.kind) {
    case FaultKind::kTrackerOutage:
      host_.set_tracker_dark(w.tracker_group, false);
      break;
    case FaultKind::kBootstrapOutage:
      host_.set_bootstrap_dark(false);
      break;
    case FaultKind::kLinkDegrade:
      overlay_.clear_pair_degradation(w.category_a, w.category_b);
      break;
    case FaultKind::kBlackout:
      overlay_.set_category_blocked(w.category_a, false);
      break;
    case FaultKind::kChurnBurst:
      break;  // never scheduled (instantaneous), kept for -Wswitch
    case FaultKind::kUplinkBrownout:
      for (const auto& ip : browned_out_[index])
        overlay_.clear_uplink_loss(ip);
      affected = browned_out_[index].size();
      browned_out_[index].clear();
      break;
  }
  ++windows_reverted_;
  emit("fault_end", index, affected);
}

void FaultDriver::export_metrics(obs::MetricsRegistry& registry) const {
  if (windows_applied_ > 0)
    registry.counter("fault_windows_applied").raise_to(windows_applied_);
  if (windows_reverted_ > 0)
    registry.counter("fault_windows_reverted").raise_to(windows_reverted_);
  if (burst_applied_)
    registry.counter("fault_peers_crashed").raise_to(peers_crashed_);
}

void FaultDriver::emit(const char* event, std::size_t index,
                       std::uint64_t affected) {
  obs::TraceSink* trace = simulator_.trace_sink();
  if (trace == nullptr) return;
  const FaultWindow& w = plan_.windows[index];
  obs::TraceEvent ev(simulator_.now(), event);
  ev.field("window", static_cast<std::uint64_t>(index))
      .field("kind", to_string(w.kind))
      .field("start_s", w.start.as_seconds())
      .field("end_s", w.end.as_seconds());
  switch (w.kind) {
    case FaultKind::kTrackerOutage:
      ev.field("group", w.tracker_group);
      break;
    case FaultKind::kBootstrapOutage:
      break;
    case FaultKind::kLinkDegrade:
      ev.field("a", net::to_string(w.category_a))
          .field("b", net::to_string(w.category_b))
          .field("loss", w.loss)
          .field("added_rtt_ms", w.added_rtt.as_seconds() * 1000.0);
      break;
    case FaultKind::kBlackout:
      ev.field("a", net::to_string(w.category_a));
      break;
    case FaultKind::kChurnBurst:
    case FaultKind::kUplinkBrownout:
      ev.field("fraction", w.fraction).field("affected", affected);
      break;
  }
  if (!w.label.empty()) ev.field("label", w.label);
  trace->write(ev);
}

}  // namespace ppsim::faults
