// Deterministic fault injection for the PFS simulator.
//
// Real Lustre deployments degrade not only through healthy-server
// contention (the paper's interference classes) but because servers
// *misbehave*: a disk enters a slow-path episode (media retries, SMR GC),
// an OST stalls outright (failover, controller reset), or the fabric drops
// RPCs.  LASSi's "risk" metrics and DIAL's client-side adaptation both
// treat degraded-server conditions as first-class interference sources, so
// the campaign generator needs a scenario family where the *server* is the
// source of slowdown.
//
// A FaultPlan is a declarative schedule of timed fault episodes; the
// FaultInjector arms it against a concrete Cluster by scheduling
// activation/deactivation events on the simulation clock.  Everything is
// driven by the run's own RNG streams, so a faulted scenario is exactly as
// reproducible as a healthy one — and an *empty* plan schedules nothing,
// draws nothing, and leaves every byte of the simulation unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qif/pfs/types.hpp"
#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {

class Cluster;

namespace faults {

/// Per-OST slow-disk episode: every media service (seek + rotation +
/// transfer) on the OST's disk is multiplied by `factor` during the
/// episode — the signature of a drive in retry/remap trouble.
struct SlowDisk {
  OstId ost = 0;
  sim::SimTime start = 0;
  sim::SimDuration duration = 0;
  double factor = 1.0;
};

/// OST stall/blackout window: the disk stops dispatching entirely (queued
/// and newly arriving requests hang until the window ends).  Clients keep
/// their RPCs pending into the stall, which is what drives the
/// timeout/retry machinery.
struct Stall {
  OstId ost = 0;
  sim::SimTime start = 0;
  sim::SimDuration duration = 0;
};

/// Probabilistic RPC-message loss window: while active, every message
/// entering a network resource (client-egress Pipe, server ingress/egress
/// FairLink) is independently dropped with probability `probability`.
struct RpcLoss {
  sim::SimTime start = 0;
  sim::SimDuration duration = 0;
  double probability = 0.0;
};

struct FaultPlan {
  std::vector<SlowDisk> slow_disks;
  std::vector<Stall> stalls;
  std::vector<RpcLoss> rpc_loss;

  [[nodiscard]] bool empty() const {
    return slow_disks.empty() && stalls.empty() && rpc_loss.empty();
  }
  /// Total number of scheduled episodes.
  [[nodiscard]] std::size_t size() const {
    return slow_disks.size() + stalls.size() + rpc_loss.size();
  }
};

/// Parses a fault-plan spec string (the `--faults` CLI surface):
///
///   spec    := clause (';' clause)*
///   clause  := kind ':' key '=' value (',' key '=' value)*
///   kind    := 'slow' | 'stall' | 'drop'
///
///   slow:  ost=<int>, start=<seconds>, dur=<seconds>, factor=<float >= 1>
///   stall: ost=<int>, start=<seconds>, dur=<seconds>
///   drop:  p=<float in [0,1]>, start=<seconds>, dur=<seconds>
///
/// Example: "slow:ost=1,start=5,dur=30,factor=8;stall:ost=0,start=40,dur=10"
/// Times are fractional seconds on the simulation clock.  Throws
/// std::invalid_argument with the clause number and character offset of the
/// offending token, so fuzz-found rejections are diagnosable.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Canonical spec string for a plan (round-trips through parse_fault_plan).
[[nodiscard]] std::string to_spec(const FaultPlan& plan);

/// Arms a FaultPlan against a cluster: schedules every episode's
/// activation/deactivation on the simulation clock, maintains the per-OST
/// fault state (stacked slow factors, stall depth) and installs the
/// message-loss gates on the network resources.  One injector per run;
/// construct after the Cluster, before any workload starts.
///
/// Message loss is a *per-resource* gate: each fabric resource gets its own
/// RNG stream (derived from the run seed and the resource's stable name)
/// and computes the active drop probability as a pure function of the
/// static plan at the simulation clock.  A resource's drop sequence thus
/// depends only on its own traffic.
class FaultInjector {
 public:
  /// Validates the plan against the cluster (OST ids, factors,
  /// probabilities — throws std::invalid_argument), installs the loss
  /// gates and schedules all episodes.  `seed` feeds the per-resource
  /// message-loss RNG streams (and the standalone gate's stream).
  FaultInjector(Cluster& cluster, FaultPlan plan, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Standalone message-loss gate (kept for direct use and tests; the
  /// fabric resources use their own per-resource gates).  Draws from the
  /// RNG only while at least one loss window is active, so a plan without
  /// active loss perturbs no RNG stream.
  [[nodiscard]] bool should_drop_message();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// Combined drop probability of the loss windows active at `t`
  /// (active on [start, start + duration)); pure function of the plan.
  [[nodiscard]] double loss_probability_at(sim::SimTime t) const;
  /// Combined drop probability of the currently active loss windows.
  [[nodiscard]] double active_loss_probability() const;
  /// Messages dropped across the standalone gate and every fabric resource.
  [[nodiscard]] std::uint64_t messages_dropped() const;
  /// Slow/stall episode activations executed so far (introspection for
  /// tests; loss windows are pure time checks and schedule no events).
  [[nodiscard]] int activations() const { return activations_; }

 private:
  struct OstFaultState {
    std::vector<double> slow_factors;  ///< active episode factors (stacked)
    int stall_depth = 0;
  };

  /// One fabric resource's gate state; owned jointly by the injector (for
  /// the drop tally) and the resource's gate closure.
  struct LossGate {
    sim::Rng rng;
    std::uint64_t dropped = 0;
  };

  void schedule_episodes();
  void apply_slow(OstId ost, double factor, bool activate);
  void apply_stall(OstId ost, bool activate);

  Cluster& cluster_;
  FaultPlan plan_;
  sim::Rng rng_;
  std::vector<OstFaultState> ost_state_;
  std::vector<std::shared_ptr<LossGate>> loss_gates_;
  std::uint64_t messages_dropped_ = 0;  ///< standalone gate's own tally
  int activations_ = 0;
};

}  // namespace faults
}  // namespace qif::pfs
