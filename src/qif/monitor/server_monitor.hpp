// Server-side monitor (paper §III-B, Table II).
//
// One independent sampling process per monitored server: every simulated
// second it reads the server's cumulative counters, forms the per-second
// delta, and folds it into the current window's sum/mean/std aggregates —
// "All metrics in this section are recorded once every second and a sum,
// mean, and standard deviation over all seconds in a given time window are
// calculated."
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "qif/monitor/schema.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/sim/sampler.hpp"
#include "qif/sim/stats.hpp"

namespace qif::monitor {

/// Finished window aggregates for one server: per raw metric, the window's
/// sum / mean / std over its per-second samples.
struct ServerWindow {
  std::array<sim::RunningStats, MetricSchema::kRawServerMetrics> metrics;
};

class ServerMonitor {
 public:
  /// Samples every `sample_period` (1 s in the paper) and closes a window
  /// every `window` (must be a multiple of the sample period).
  ServerMonitor(pfs::Cluster& cluster, sim::SimDuration window,
                sim::SimDuration sample_period = sim::kSecond);

  /// Begins sampling; idempotent.
  void start();
  void stop();

  /// Fills the server-side slice of the per-server feature vector for a
  /// closed window.  `out` must hold MetricSchema::kServerFeatures doubles.
  /// Unknown windows yield zeros (server was idle / run ended first).
  void fill_features(std::int64_t window_index, int server, double* out) const;

  /// Cell-based fill for the assembly hot path: resolve the window's cell
  /// row once via window_cells(), then fill each server from its cell.
  /// `sw == nullptr` writes zeros (idle window).
  static void fill_features_from(const ServerWindow* sw, double* out);

  /// All per-server aggregates of one window, or nullptr when no sample
  /// landed in that window.
  [[nodiscard]] const std::vector<ServerWindow>* window_cells(
      std::int64_t window_index) const;

  [[nodiscard]] const ServerWindow* window_data(std::int64_t window_index, int server) const;
  [[nodiscard]] std::vector<std::int64_t> window_indices() const;
  [[nodiscard]] sim::SimDuration window() const { return window_; }

  /// Last per-second deltas observed for `server` (for the Table II bench
  /// and live dashboards).
  [[nodiscard]] std::array<double, MetricSchema::kRawServerMetrics> last_sample(
      int server) const;

 private:
  void on_tick(std::uint64_t tick);

  pfs::Cluster& cluster_;
  sim::SimDuration window_;
  sim::SimDuration sample_period_;
  std::int64_t samples_per_window_;
  std::unique_ptr<sim::Sampler> sampler_;

  std::vector<std::array<std::int64_t, pfs::Cluster::kNumRawCounters>> prev_counters_;
  std::vector<std::array<double, MetricSchema::kRawServerMetrics>> last_sample_;
  // window index -> per-server aggregates
  std::map<std::int64_t, std::vector<ServerWindow>> windows_;
  // Hot-path cache for on_tick(): consecutive ticks land in the same
  // window, so the current row is resolved once per window instead of one
  // map lookup per tick (map nodes are pointer-stable across inserts).
  std::int64_t cached_window_ = -1;
  std::vector<ServerWindow>* cached_cells_ = nullptr;
};

}  // namespace qif::monitor
