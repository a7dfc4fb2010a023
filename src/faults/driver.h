#pragma once

#include <cstdint>
#include <vector>

#include "faults/plan.h"
#include "net/impairment.h"
#include "net/ip.h"
#include "obs/metrics.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace ppsim::faults {

/// The driver's view of the world it injects faults into. The experiment
/// runner implements this; tests substitute a mock. Everything here must be
/// deterministic: alive_audience_ips() returns IPs in ascending order so
/// the driver's own RNG is the only source of randomness in a fault run.
class FaultHost {
 public:
  virtual ~FaultHost() = default;

  /// Turns a tracker group dark (it silently drops queries) or lights it
  /// back up. group == -1 addresses every group.
  virtual void set_tracker_dark(int group, bool dark) = 0;

  /// Turns the bootstrap/channel server dark.
  virtual void set_bootstrap_dark(bool dark) = 0;

  /// Alive audience peers (never probes or infrastructure), ascending IPs.
  virtual std::vector<net::IpAddress> alive_audience_ips() const = 0;

  /// Crashes one peer: an abrupt departure with no goodbyes (the churn
  /// burst's unit of work). The host decides bookkeeping (session records,
  /// respawns).
  virtual void crash_peer(net::IpAddress ip) = 0;
};

/// Arms a FaultPlan on the simulator clock and applies/reverts each window
/// through the impairment overlay and the FaultHost seams. All scheduling
/// happens up front in arm(), so a driven run stays a pure function of
/// (run seed, fault seed, plan).
///
/// Every window boundary emits a "fault_begin"/"fault_end" event to the
/// simulator's trace sink, so recovery analysis can line the obs
/// time-series up against the schedule. The driver counts windows and
/// crashed peers itself; export_metrics copies those counts into a
/// registry when something reads it.
class FaultDriver {
 public:
  /// `seed` seeds the driver's private RNG (peer sampling for churn bursts
  /// and brownouts). The caller derives it from the run seed when the user
  /// didn't pin one, so same (seed, plan) => same victims.
  FaultDriver(sim::Simulator& simulator, net::ImpairmentOverlay& overlay,
              FaultHost& host, FaultPlan plan, std::uint64_t seed = 0);

  FaultDriver(const FaultDriver&) = delete;
  FaultDriver& operator=(const FaultDriver&) = delete;

  /// Schedules every window's begin/end on the simulator. Call once,
  /// before running; windows already in the past fire immediately on the
  /// next run step (schedule clamps to now).
  void arm();

  std::uint64_t windows_applied() const { return windows_applied_; }
  std::uint64_t windows_reverted() const { return windows_reverted_; }
  std::uint64_t peers_crashed() const { return peers_crashed_; }

  /// Converges fault_windows_applied, fault_windows_reverted and
  /// fault_peers_crashed on the driver's counts. A series appears once it
  /// has something to count: the first applied window, the first revert,
  /// the first churn burst (even one that crashed nobody).
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  void apply(std::size_t index);
  void revert(std::size_t index);
  /// Samples ceil(fraction * alive) audience peers, ascending-IP result.
  std::vector<net::IpAddress> sample_peers(double fraction);
  void emit(const char* event, std::size_t index, std::uint64_t affected);

  sim::Simulator& simulator_;
  net::ImpairmentOverlay& overlay_;
  FaultHost& host_;
  FaultPlan plan_;
  sim::Rng rng_;
  bool armed_ = false;
  std::uint64_t windows_applied_ = 0;
  std::uint64_t windows_reverted_ = 0;
  std::uint64_t peers_crashed_ = 0;
  bool burst_applied_ = false;
  /// Per-window brownout victims, remembered so revert clears exactly the
  /// uplinks this window impaired.
  std::vector<std::vector<net::IpAddress>> browned_out_;
};

}  // namespace ppsim::faults
