// Online deployment scenario: an "interference guard" for a running
// application.
//
// The paper's motivation: "users can develop more effective methods to
// mitigate such impacts" once interference is *quantified* at runtime.
// This example plays that story end to end:
//
//  1. train the binary model offline on an Enzo campaign,
//  2. deploy it next to a live Enzo run (the paper's Figure 2 runtime path:
//     client monitor + server monitors -> per-server vectors -> model),
//  3. at every 1 s window, print the predicted class, the model's
//     confidence, and which server the kernel blames — and demonstrate a
//     mitigation hook: defer Enzo's checkpoint phase while the model
//     predicts >= 2x degradation.
#include <cstdio>

#include "qif/core/datasets.hpp"
#include "qif/core/online.hpp"
#include "qif/core/scenario.hpp"
#include "qif/core/training_server.hpp"
#include "qif/monitor/client_monitor.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/workloads/driver.hpp"

using namespace qif;

int main() {
  // ---- 1. Offline training ---------------------------------------------
  std::printf("training the interference model on an Enzo campaign...\n");
  core::DatasetOptions opts;
  opts.richness = 1.0;
  const monitor::Dataset ds = core::build_app_dataset("enzo", opts);
  core::TrainingServerConfig tsc;
  tsc.n_classes = 2;
  core::TrainingServer server(tsc);
  const ml::TrainResult tr = server.fit(ds);
  std::printf("model ready: %zu training windows, val macro-F1 %.3f\n\n", ds.size(),
              tr.best_val_macro_f1);

  // ---- 2. Live deployment ----------------------------------------------
  sim::Simulation simulation;
  pfs::ClusterConfig cc = core::testbed_cluster_config(77);
  pfs::Cluster cluster(simulation, cc);

  monitor::ClientMonitor cmon(/*job=*/0, sim::kSecond, cluster.n_servers(),
                              cluster.mdt_server_index());
  monitor::ServerMonitor smon(cluster, sim::kSecond);
  smon.start();
  cluster.trace_log().set_observer(
      [&](const trace::OpRecord& r, trace::TraceLog::Targets t) { cmon.observe(r, t); });

  workloads::JobSpec enzo;
  enzo.workload = "enzo";
  enzo.nodes = {0, 1};
  enzo.procs_per_node = 2;
  enzo.seed = 7;
  enzo.scale = 4.0;
  workloads::JobInstance job(cluster, enzo, /*loop=*/false);

  // Background interference arrives mid-run (t = 6 s): a burst of
  // ior-easy-write instances on the other nodes.
  workloads::InterferenceDriver noise(cluster, "ior-easy-write", {2, 3, 4, 5, 6}, 12,
                                      40 * sim::kSecond, 91, /*job_base=*/1);
  simulation.schedule_at(6 * sim::kSecond, [&noise] { noise.start(); });

  // ---- 3. Window-by-window predictions ----------------------------------
  int deferred_windows = 0;
  core::OnlinePredictor predictor(
      cluster, server, cmon, smon, [&](const core::Prediction& p) {
        if (!p.had_activity) return;
        int blamed = 0;
        for (std::size_t srv = 1; srv < p.server_scores.size(); ++srv) {
          if (p.server_scores[srv] > p.server_scores[static_cast<std::size_t>(blamed)]) {
            blamed = static_cast<int>(srv);
          }
        }
        const bool severe = p.predicted_class >= 1;
        if (severe) ++deferred_windows;
        std::printf("window %3lld | predicted %-5s p(>=2x)=%.2f | hottest server: %s |"
                    " checkpoint: %s\n",
                    static_cast<long long>(p.window_index), severe ? ">=2x" : "<2x",
                    p.probabilities.back(),
                    blamed == cluster.mdt_server_index()
                        ? "mdt"
                        : ("ost" + std::to_string(blamed)).c_str(),
                    severe ? "DEFER" : "proceed");
      });
  predictor.start();

  bool done = false;
  job.start([&] { done = true; });
  while (!done && simulation.now() < 120 * sim::kSecond) {
    simulation.run_until(simulation.now() + sim::kSecond);
  }
  predictor.stop();
  std::printf("\nEnzo finished at %.1f s; the guard would have deferred checkpoints in"
              " %d windows.\n",
              sim::to_seconds(simulation.now()), deferred_windows);
  std::printf("(interference started at t = 6 s — predictions should flip around"
              " there)\n");
  return 0;
}
