// Scenario runner: one complete simulated execution.
//
// A scenario is the unit of the paper's data-collection methodology: a
// *target workload* (job 0, the application being monitored) runs on its
// own compute nodes, optionally with an interference driver keeping
// background instances alive on the remaining nodes, while the client- and
// server-side monitors sample.  The result carries everything later stages
// need — the full DXT trace and the per-window feature table — with no
// references into the (torn down) cluster.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qif/ctrl/mitigator.hpp"
#include "qif/monitor/features.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/pfs/faults.hpp"
#include "qif/trace/op_record.hpp"
#include "qif/workloads/driver.hpp"

namespace qif::core {

struct InterferenceSpec {
  std::string workload;
  std::vector<pfs::NodeId> nodes;  ///< must be disjoint from the target's nodes
  int instances = 3;               ///< concurrent looping copies (paper: 3)
  double scale = 1.0;
  std::uint64_t seed = 99;
};

struct ScenarioConfig {
  pfs::ClusterConfig cluster;
  workloads::JobSpec target;       ///< job id is forced to 0
  std::optional<InterferenceSpec> interference;
  sim::SimDuration window = sim::kSecond;   ///< monitor window size
  sim::SimDuration horizon = 600 * sim::kSecond;  ///< hard stop
  bool monitors = true;            ///< baseline runs can skip monitoring
  /// Fault-injection schedule.  Empty (the default) means a healthy run:
  /// no injector is constructed, no client timeout machinery is armed, and
  /// the simulation is bit-identical to a pre-fault build.  Non-empty plans
  /// arm the injector and (unless the cluster config already sets one)
  /// enable a default client RPC deadline so stalls surface as timeouts.
  pfs::faults::FaultPlan faults;
  /// Closed-loop interference mitigation (qif::ctrl).  Empty policy (the
  /// default) constructs nothing — no admission gates, no controller ticks,
  /// no extra RNG streams — so unmitigated runs stay byte-identical to
  /// pre-mitigation builds.  A non-empty policy arms one controller per
  /// gated client (scope decides whether job 0 is gated) with decision
  /// epochs on the simulation clock.
  ctrl::MitigationConfig mitigation;
};

struct ScenarioResult {
  trace::TraceLog trace;           ///< all jobs' op records
  /// Per-window flattened per-server feature vectors (only windows where
  /// the target did I/O); empty when monitors were disabled.  One row per
  /// window, appended in ascending window order (so window lookups are a
  /// binary search over the window_index column); labels/degradations in
  /// this table are placeholders — the campaign join supplies real ones.
  monitor::FeatureTable window_features;
  int n_servers = 0;
  int dim = 0;
  bool target_finished = false;
  sim::SimTime target_completion = 0;  ///< valid when target_finished
  /// Start of the target's timed (body) phase — setup prologues such as
  /// pre-creating a read phase's files are excluded from slowdown ratios,
  /// matching how IO500 times each phase separately.
  sim::SimTime target_body_start = 0;
  /// completion - body start, the timed-phase duration.
  [[nodiscard]] sim::SimDuration target_body_duration() const {
    return target_completion - target_body_start;
  }
  std::uint64_t events_executed = 0;
  /// Mitigation telemetry (policy string, throttle totals, per-window
  /// controller columns, victim p99).  Inactive/default when the scenario
  /// ran without mitigation.
  ctrl::MitigationReport ctrl;
};

/// Runs one scenario to target completion (or the horizon) and returns the
/// detached results.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// The paper's testbed topology: 7 client nodes, 3 OSS x 2 OST, 1 MDS/MDT,
/// 1 GB/s links, 7200 rpm SATA disks.
[[nodiscard]] pfs::ClusterConfig testbed_cluster_config(std::uint64_t seed = 42);

}  // namespace qif::core
