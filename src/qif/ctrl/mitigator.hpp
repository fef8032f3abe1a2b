// Mitigator: arms a MitigationConfig against a live cluster.
//
// One mitigator per run, constructed after the Cluster and before any
// workload starts (the fault-injector pattern).  It installs an admission-
// gate factory on the cluster, so every client created by the workload
// layer gets its own Controller (scope decides whether the monitored job 0
// is gated too), and schedules each controller's decision-epoch tick on
// the simulation clock.
//
// An *empty* config constructs nothing: no factory, no controllers, no
// tick events, no RNG draws — a mitigation-off run is byte-identical to a
// pre-mitigation build, which is what the committed goldens pin.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qif/ctrl/controller.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::ctrl {

/// One monitor window's controller columns (the per-window mitigation
/// telemetry `qif run/campaign --mitigate` prints and exports).
struct WindowCtrl {
  std::int64_t window_index = 0;
  std::int64_t throttle_waits = 0;
  std::int64_t throttled_bytes = 0;
  double throttle_delay_s = 0.0;
  /// Mean concurrency cap over the controllers that closed an epoch in the
  /// window (probing policy; 0 for the rate-metered token policy).
  double mean_admission_level = 0.0;
  int flagged_controllers = 0;
  /// p99 latency (ms) of the monitored job's ops completing in the window.
  double victim_p99_ms = 0.0;
};

struct MitigationReport {
  std::string policy;  ///< canonical spec (to_spec), "off" when inactive
  int controllers = 0;
  std::int64_t throttle_waits = 0;
  std::int64_t throttled_bytes = 0;
  double throttle_delay_s = 0.0;
  double mean_admission_level = 0.0;
  double victim_p99_ms = 0.0;  ///< whole-run p99 of the victim's op latency
  std::vector<WindowCtrl> windows;
  [[nodiscard]] bool active() const { return controllers > 0; }
};

class Mitigator {
 public:
  /// Installs the gate factory; throws std::invalid_argument on an empty
  /// config (callers gate on config.empty(), like the fault injector).
  Mitigator(pfs::Cluster& cluster, const MitigationConfig& config);
  ~Mitigator();

  Mitigator(const Mitigator&) = delete;
  Mitigator& operator=(const Mitigator&) = delete;

  [[nodiscard]] const MitigationConfig& config() const { return config_; }
  [[nodiscard]] std::size_t n_controllers() const { return slots_.size(); }

  /// Publishes external per-OSS-port interference flags (the
  /// OnlinePredictor bridge) to every controller, replacing their
  /// self-signals.
  void set_external_flags(std::vector<std::uint8_t> per_port_flags);

  /// Aggregates every controller's epoch log into per-window rows and
  /// computes the victim (job 0) latency percentiles from the merged
  /// trace.  Call after the run completes.
  [[nodiscard]] MitigationReport report(const trace::TraceLog& trace,
                                        sim::SimDuration window) const;

  /// p99 latency in ms over `job`'s op records (0 when the job has none).
  [[nodiscard]] static double victim_p99_ms(const trace::TraceLog& trace,
                                            std::int32_t job = 0);

 private:
  /// Creates the client's controller, schedules its tick, returns its gate.
  pfs::AdmissionGate* attach(pfs::PfsClient& client);

  struct Slot {
    std::unique_ptr<Controller> controller;
    pfs::NodeId node = 0;
    std::int32_t job = 0;
  };

  pfs::Cluster& cluster_;
  MitigationConfig config_;
  FlagBoard board_;
  bool board_active_ = false;
  std::vector<Slot> slots_;
};

}  // namespace qif::ctrl
