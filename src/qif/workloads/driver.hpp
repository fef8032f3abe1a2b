// Job launch plumbing.
//
// JobInstance runs one workload (all its ranks) on a cluster; the
// InterferenceDriver keeps a configurable number of looping background
// instances alive for the whole horizon — the paper's methodology of
// "each node running interference tasks was configured to ensure 3
// concurrent runs remain active for the entirety of the consecutive runs",
// always on different nodes from the target to avoid client-local
// contention.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "qif/pfs/cluster.hpp"
#include "qif/workloads/program.hpp"
#include "qif/workloads/registry.hpp"

namespace qif::workloads {

struct JobSpec {
  std::string workload;
  std::vector<pfs::NodeId> nodes;  ///< compute nodes hosting the ranks
  int procs_per_node = 1;
  std::int32_t job = 0;            ///< trace tag; must be unique per run
  std::uint64_t seed = 1;
  double scale = 1.0;              ///< op-count multiplier (see registry)

  [[nodiscard]] int n_ranks() const {
    return static_cast<int>(nodes.size()) * procs_per_node;
  }
};

class JobInstance {
 public:
  /// Builds programs and clients for every rank.  `loop` + `stop_at`
  /// configure interference mode; target jobs run once to completion.
  JobInstance(pfs::Cluster& cluster, const JobSpec& spec, bool loop,
              sim::SimTime stop_at = std::numeric_limits<sim::SimTime>::max());

  /// Starts all ranks.  `on_complete` fires when every rank has finished
  /// (for looping jobs: when every rank passed the horizon).
  void start(std::function<void()> on_complete = nullptr);

  [[nodiscard]] bool done() const { return ranks_done_ == executors_.size(); }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] sim::SimTime completion_time() const { return completion_time_; }
  /// Latest rank body-entry time: the start of the job's timed phase.
  [[nodiscard]] sim::SimTime body_start_time() const;
  [[nodiscard]] std::uint64_t total_body_iterations() const;

 private:
  pfs::Cluster& cluster_;
  JobSpec spec_;
  std::vector<std::unique_ptr<ProgramExecutor>> executors_;
  std::size_t ranks_done_ = 0;
  sim::SimTime completion_time_ = 0;
  std::function<void()> on_complete_;
};

class InterferenceDriver {
 public:
  /// Keeps `instances` copies of `workload` looping on `nodes` until
  /// `stop_at`.  Instance k runs on node nodes[k % nodes.size()] with one
  /// rank, and gets job id `job_base + k` and a distinct seed.
  InterferenceDriver(pfs::Cluster& cluster, const std::string& workload,
                     std::vector<pfs::NodeId> nodes, int instances, sim::SimTime stop_at,
                     std::uint64_t seed, std::int32_t job_base, double scale = 1.0);

  void start();

  [[nodiscard]] const std::vector<std::unique_ptr<JobInstance>>& instances() const {
    return instances_;
  }

 private:
  std::vector<std::unique_ptr<JobInstance>> instances_;
};

}  // namespace qif::workloads
