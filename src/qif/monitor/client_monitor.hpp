// Client-side monitor (paper §III-A).
//
// Consumes per-op trace records for one monitored application ("target
// workload") as they complete and aggregates them per (time window,
// target server): counts of read/write/metadata requests, byte sums,
// actual I/O time, and the derived throughput and IOPS.  This is the role
// of the paper's modified Darshan + SHM buffer + MPI aggregator, collapsed
// into one deterministic in-process component.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "qif/monitor/schema.hpp"
#include "qif/pfs/types.hpp"
#include "qif/sim/time.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::monitor {

/// Aggregated client-side metrics for one (window, server) cell.
struct ClientWindow {
  std::int64_t n_read = 0;
  std::int64_t n_write = 0;
  std::int64_t n_meta = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_write = 0;
  double io_time_s = 0.0;  ///< summed op durations attributed to this server
  // Fault-path counters (all zero on healthy runs).
  std::int64_t retries = 0;
  std::int64_t timeouts = 0;
  std::int64_t failed_ops = 0;

  [[nodiscard]] std::int64_t n_total() const { return n_read + n_write + n_meta; }
  [[nodiscard]] std::int64_t bytes_total() const { return bytes_read + bytes_write; }
};

class ClientMonitor {
 public:
  /// Aggregates ops of `job` into windows of `window` length across
  /// `n_servers` monitored servers.  `mdt_server_index` resolves the
  /// kMdtTarget sentinel (pass Cluster::mdt_server_index()).
  ClientMonitor(std::int32_t job, sim::SimDuration window, int n_servers,
                int mdt_server_index);

  /// Streaming entry point; attach via TraceLog::set_observer, which hands
  /// over each row with the targets stored for it.  Ops of other jobs are
  /// ignored.
  void observe(const trace::OpRecord& rec, std::span<const std::int32_t> targets);

  /// Fills the client-side slice of a per-server feature vector.
  /// `out` must have room for MetricSchema::kClientFeatures doubles.
  void fill_features(std::int64_t window_index, int server, double* out) const;

  /// Fills the fault-path slice (retries, timeouts, failed ops) of a
  /// per-server feature vector.  `out` must have room for
  /// MetricSchema::kFaultFeatures doubles.
  void fill_fault_features(std::int64_t window_index, int server, double* out) const;

  /// Cell-based fill variants for the assembly hot path: the assembler
  /// resolves a window's cell row once and fills every server from it,
  /// instead of paying one map lookup per (window, server).
  static void fill_features_from(const ClientWindow& c, sim::SimDuration window,
                                 double* out);
  static void fill_fault_features_from(const ClientWindow& c, double* out);

  /// All per-server cells of one window (n_servers entries), or nullptr
  /// when the window saw no ops.
  [[nodiscard]] const std::vector<ClientWindow>* window_cells(
      std::int64_t window_index) const;

  [[nodiscard]] const ClientWindow* cell(std::int64_t window_index, int server) const;
  [[nodiscard]] std::vector<std::int64_t> window_indices() const;
  [[nodiscard]] sim::SimDuration window() const { return window_; }
  [[nodiscard]] int n_servers() const { return n_servers_; }
  [[nodiscard]] std::int64_t ops_observed() const { return ops_observed_; }

 private:
  std::int32_t job_;
  sim::SimDuration window_;
  int n_servers_;
  int mdt_server_index_;
  std::int64_t ops_observed_ = 0;
  // window index -> per-server cells
  std::map<std::int64_t, std::vector<ClientWindow>> windows_;
  // Hot-path state for observe(): ops cluster heavily by window, so the
  // current window's cell row is cached (map nodes are stable, so the
  // pointer survives later inserts), and the per-op resolved-target list
  // reuses one scratch buffer instead of allocating per op.
  std::int64_t cached_window_ = -1;
  std::vector<ClientWindow>* cached_cells_ = nullptr;
  std::vector<int> scratch_targets_;
};

}  // namespace qif::monitor
