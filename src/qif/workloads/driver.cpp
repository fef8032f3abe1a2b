#include "qif/workloads/driver.hpp"

namespace qif::workloads {

JobInstance::JobInstance(pfs::Cluster& cluster, const JobSpec& spec, bool loop,
                         sim::SimTime stop_at)
    : cluster_(cluster), spec_(spec) {
  const int n_ranks = spec_.n_ranks();
  executors_.reserve(static_cast<std::size_t>(n_ranks));
  for (pfs::Rank r = 0; r < n_ranks; ++r) {
    const pfs::NodeId node = spec_.nodes[static_cast<std::size_t>(r) / spec_.procs_per_node];
    pfs::PfsClient& client = cluster_.make_client(node, r, spec_.job);
    RankProgram prog =
        build_named_program(spec_.workload, r, n_ranks, spec_.job, spec_.seed, spec_.scale);
    ExecOptions opts;
    opts.loop = loop;
    opts.stop_at = stop_at;
    opts.on_finish = [this] {
      ++ranks_done_;
      if (ranks_done_ == executors_.size()) {
        completion_time_ = cluster_.sim().now();
        if (on_complete_) on_complete_();
      }
    };
    executors_.push_back(
        std::make_unique<ProgramExecutor>(client, std::move(prog), std::move(opts)));
  }
}

void JobInstance::start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  for (auto& ex : executors_) ex->start();
}

sim::SimTime JobInstance::body_start_time() const {
  sim::SimTime t = 0;
  for (const auto& ex : executors_) t = std::max(t, ex->body_start_time());
  return t;
}

std::uint64_t JobInstance::total_body_iterations() const {
  std::uint64_t n = 0;
  for (const auto& ex : executors_) n += ex->body_iterations();
  return n;
}

InterferenceDriver::InterferenceDriver(pfs::Cluster& cluster, const std::string& workload,
                                       std::vector<pfs::NodeId> nodes, int instances,
                                       sim::SimTime stop_at, std::uint64_t seed,
                                       std::int32_t job_base, double scale) {
  instances_.reserve(static_cast<std::size_t>(instances));
  for (int k = 0; k < instances; ++k) {
    JobSpec spec;
    spec.workload = workload;
    spec.nodes = {nodes[static_cast<std::size_t>(k) % nodes.size()]};
    spec.procs_per_node = 1;
    spec.job = job_base + k;
    spec.seed = sim::Rng::derive_seed(seed, "interf" + std::to_string(k));
    spec.scale = scale;
    instances_.push_back(std::make_unique<JobInstance>(cluster, spec, /*loop=*/true, stop_at));
  }
}

void InterferenceDriver::start() {
  for (auto& inst : instances_) inst->start(nullptr);
}

}  // namespace qif::workloads
