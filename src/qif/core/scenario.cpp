#include "qif/core/scenario.hpp"

#include <optional>
#include <utility>

#include "qif/monitor/client_monitor.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::core {

pfs::ClusterConfig testbed_cluster_config(std::uint64_t seed) {
  pfs::ClusterConfig cfg;
  cfg.n_client_nodes = 7;
  cfg.n_oss = 3;
  cfg.osts_per_oss = 2;
  cfg.seed = seed;
  // Server page cache: the testbed machines carry 32-140 GB of RAM, so
  // recently written small files are read back from memory.  4 GiB per OST
  // models that OSS cache share (bench/ablation_server_cache measures how
  // this moves the read-back cells of Table I onto the paper's values).
  cfg.read_cache.capacity_bytes = 4ll << 30;
  // The MDT device serves latency-critical journal commits; starving them
  // behind inode-read storms would stall every create on the cluster, so
  // its write turns are far more generous than an OST's, and there are no
  // streaming readers to anticipate.
  cfg.mdt_disk.write_starve_limit = 20 * sim::kMillisecond;
  cfg.mdt_disk.write_turn_time = 10 * sim::kMillisecond;
  cfg.mdt_disk.anticipation_hold = 0;
  // Remaining fields keep their defaults, which already encode the paper's
  // hardware: 1 GB/s ports, 7200 rpm SATA disks, 1 MiB RPCs.
  return cfg;
}

/// Default per-RPC deadline for fault-injected runs whose config leaves the
/// timeout machinery unconfigured: long enough that healthy contention never
/// trips it (worst-case queueing in the paper's scenarios is well under a
/// second), short enough that a stalled OST turns into timeouts within the
/// monitor's window scale.
constexpr sim::SimDuration kDefaultFaultRpcDeadline = 5 * sim::kSecond;

ScenarioResult run_scenario(const ScenarioConfig& config) {
  pfs::ClusterConfig cluster_config = config.cluster;
  if (!config.faults.empty() && cluster_config.client.rpc_deadline <= 0) {
    cluster_config.client.rpc_deadline = kDefaultFaultRpcDeadline;
  }
  sim::Simulation simulation;
  pfs::Cluster cluster(simulation, cluster_config);

  // Arm the fault plan before any workload starts so episodes starting at
  // t=0 are honoured.  The injector seeds its own RNG stream from the
  // cluster seed, so faulted runs stay exactly as reproducible as healthy
  // ones.
  std::optional<pfs::faults::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(cluster, config.faults,
                     sim::Rng::derive_seed(cluster_config.seed, "faults"));
  }

  // Arm mitigation before any workload starts so every client the job
  // layer creates passes through the gate factory.  Declared after the
  // cluster (destroyed first; its dtor uninstalls the factory).
  std::optional<ctrl::Mitigator> mitigator;
  if (!config.mitigation.empty()) {
    mitigator.emplace(cluster, config.mitigation);
  }

  // Monitors attach before any workload starts so window 0 is complete.
  std::optional<monitor::ClientMonitor> client_mon;
  std::optional<monitor::ServerMonitor> server_mon;
  if (config.monitors) {
    client_mon.emplace(/*job=*/0, config.window, cluster.n_servers(),
                       cluster.mdt_server_index());
    cluster.trace_log().set_observer(
        [&m = *client_mon](const trace::OpRecord& rec, trace::TraceLog::Targets targets) {
          m.observe(rec, targets);
        });
    server_mon.emplace(cluster, config.window);
    server_mon->start();
  }

  workloads::JobSpec target = config.target;
  target.job = 0;
  workloads::JobInstance target_job(cluster, target, /*loop=*/false);

  std::optional<workloads::InterferenceDriver> driver;
  if (config.interference.has_value()) {
    const InterferenceSpec& spec = *config.interference;
    driver.emplace(cluster, spec.workload, spec.nodes, spec.instances, config.horizon,
                   spec.seed, /*job_base=*/1, spec.scale);
    driver->start();
  }

  ScenarioResult result;
  target_job.start([&] { result.target_finished = true; });

  // Step in window-sized chunks so we stop promptly once the target is
  // done; interference loops would otherwise keep the event queue alive
  // forever.
  while (!result.target_finished && simulation.now() < config.horizon) {
    const sim::SimTime next = simulation.now() + config.window;
    const std::uint64_t ran = simulation.run_until(next);
    if (ran == 0 && simulation.pending() == 0) break;  // everything drained
  }
  // Let the server monitor close the final (partial) window's samples.
  if (server_mon.has_value()) {
    simulation.run_until(((simulation.now() / config.window) + 1) * config.window);
    server_mon->stop();
  }

  result.target_completion = target_job.completion_time();
  result.target_body_start = target_job.body_start_time();
  result.events_executed = simulation.events_executed();
  // Move the trace out instead of deep-copying every record.  The observer
  // refers to client_mon, which dies with this frame, so it must not travel
  // with the log.
  cluster.trace_log().set_observer(nullptr);
  result.trace = std::move(cluster.trace_log());
  if (mitigator.has_value()) {
    result.ctrl = mitigator->report(result.trace, config.window);
  }
  if (config.monitors) {
    // Fault-injected runs widen every per-server vector with the fault
    // block; healthy runs keep the exact historical 37-wide layout.
    const bool with_faults = !config.faults.empty();
    result.n_servers = cluster.n_servers();
    result.dim = with_faults ? monitor::MetricSchema::kPerServerDimFaults
                             : monitor::MetricSchema::kPerServerDim;
    monitor::FeatureAssembler assembler(*client_mon, *server_mon, cluster.n_servers(),
                                        with_faults);
    const std::vector<std::int64_t> windows = client_mon->window_indices();
    result.window_features.set_shape(result.n_servers, result.dim);
    result.window_features.reserve(windows.size());
    // window_indices() is ascending, so the table's window column stays
    // sorted and the campaign join can binary-search it.
    for (const std::int64_t w : windows) {
      assembler.fill_window(w, result.window_features.append_row(w, 0, 1.0));
    }
  }
  return result;
}

}  // namespace qif::core
