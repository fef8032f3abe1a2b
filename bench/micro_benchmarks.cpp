// Microbenchmarks (google-benchmark) for the framework's hot paths:
// the event engine, the contended-resource models, the monitor sampling
// path, the network training step, and a small end-to-end scenario.
// These bound the cost of the paper's "real-time monitoring and modelling
// capabilities at the scale of HPC systems".  Run by hand, e.g.
//   micro_benchmarks --benchmark_filter='BM_Gemm|BM_TrainerEpoch'
// The bench_engine_smoke ctest runs the engine, FairLink and scenario
// benchmarks briefly; gated whole-pipeline numbers come from perfbench/.
#include <benchmark/benchmark.h>

#include "qif/core/scenario.hpp"
#include "qif/exec/thread_pool.hpp"
#include "qif/ml/gemm.hpp"
#include "qif/ml/kernel_net.hpp"
#include "qif/ml/nn.hpp"
#include "qif/ml/trainer.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/pfs/disk.hpp"
#include "qif/sim/fair_link.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/workloads/driver.hpp"

using namespace qif;

namespace {

void BM_EventEngine(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      s.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(s.run_all());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventEngine)->Arg(1000)->Arg(100000);

// The FairLink pattern: every new arrival cancels the pending completion
// event and re-arms it.  With the tombstone engine each cancelled event
// also pays an O(cancelled) sweep at pop time, so this loop was quadratic;
// the pooled heap makes cancel a true O(log n) removal.
void BM_EventEngineCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    const int n = static_cast<int>(state.range(0));
    sim::EventId pending = sim::kInvalidEvent;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      s.cancel(pending);
      pending = s.schedule_at(i + n, [&fired] { ++fired; });
    }
    s.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventEngineCancelChurn)->Arg(1000)->Arg(16384);

// Timeout-teardown pattern: many armed timeouts that never fire (they are
// cancelled before their deadline), interleaved with real work events.
void BM_EventEngineTimeouts(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    const int n = static_cast<int>(state.range(0));
    std::vector<sim::EventId> timeouts;
    timeouts.reserve(static_cast<std::size_t>(n));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      timeouts.push_back(s.schedule_at(1'000'000 + i, [&fired] { ++fired; }));
      s.schedule_at(i, [&fired] { ++fired; });
    }
    for (const auto id : timeouts) s.cancel(id);
    benchmark::DoNotOptimize(s.run_all());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_EventEngineTimeouts)->Arg(1000)->Arg(16384);

void BM_FairLink(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    sim::FairLink link(s, 1e9);
    int done = 0;
    for (int i = 0; i < state.range(0); ++i) {
      link.transfer(1 << 20, [&done] { ++done; });
    }
    s.run_all();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FairLink)->Arg(64)->Arg(512);

void BM_DiskSequential(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    pfs::DiskModel disk(s, {}, 1);
    int done = 0;
    for (int i = 0; i < state.range(0); ++i) {
      disk.submit(false, static_cast<std::int64_t>(i) << 20, 1 << 20, [&done] { ++done; });
    }
    s.run_all();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiskSequential)->Arg(256);

void BM_DiskInterleavedStreams(benchmark::State& state) {
  // Two far-apart streams: the seek-storm case.
  for (auto _ : state) {
    sim::Simulation s;
    pfs::DiskModel disk(s, {}, 1);
    int done = 0;
    for (int i = 0; i < state.range(0); ++i) {
      const std::int64_t base = (i % 2 == 0) ? 0 : (512ll << 30);
      disk.submit(false, base + (static_cast<std::int64_t>(i / 2) << 20), 1 << 20,
                  [&done] { ++done; });
    }
    s.run_all();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiskInterleavedStreams)->Arg(256);

void BM_ServerMonitorSample(benchmark::State& state) {
  sim::Simulation s;
  pfs::ClusterConfig cc;
  pfs::Cluster cluster(s, cc);
  for (auto _ : state) {
    for (int srv = 0; srv < cluster.n_servers(); ++srv) {
      benchmark::DoNotOptimize(cluster.server_counters(srv));
    }
  }
  state.SetItemsProcessed(state.iterations() * cluster.n_servers());
}
BENCHMARK(BM_ServerMonitorSample);

void BM_KernelNetTrainStep(benchmark::State& state) {
  ml::KernelNetConfig cfg;
  cfg.per_server_dim = 37;
  cfg.n_servers = 7;
  cfg.n_classes = 2;
  ml::KernelNet net(cfg);
  const std::size_t batch = 64;
  ml::Matrix x(batch, 7 * 37);
  sim::Rng rng(3);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 2);
  std::int64_t t = 0;
  for (auto _ : state) {
    const ml::Matrix logits = net.forward(x);
    auto [loss, grad] = ml::SoftmaxXent::loss_and_grad(logits, y, {});
    net.backward(grad);
    net.step({}, ++t);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_KernelNetTrainStep);

void BM_KernelNetInference(benchmark::State& state) {
  ml::KernelNetConfig cfg;
  ml::KernelNet net(cfg);
  ml::Matrix x(1, 7 * 37);
  sim::Rng rng(4);
  for (auto& v : x.data()) v = rng.normal(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelNetInference);

// --- GEMM microbenchmarks -------------------------------------------------
//
// BM_GemmNaive replays the pre-blocking triple loop (including its
// `aik == 0.0` skip) so the blocked/parallel numbers below are measured
// against the implementation they replaced.  Shapes are the trainer's hot
// GEMMs: (B*S, D) x (D, H) for the shared kernel MLP at batch 64 with
// 7 servers, plus one larger square-ish shape where blocking pays most.

ml::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  ml::Matrix m(r, c);
  sim::Rng rng(seed);
  for (auto& v : m.data()) v = rng.normal(0, 1);
  return m;
}

void naive_matmul(const ml::Matrix& a, const ml::Matrix& b, ml::Matrix& c) {
  c = ml::Matrix(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* crow = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

void set_gflops(benchmark::State& state) {
  const double flops = 2.0 * static_cast<double>(state.range(0)) *
                       static_cast<double>(state.range(1)) *
                       static_cast<double>(state.range(2));
  state.counters["GFLOPS"] =
      benchmark::Counter(flops * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_GemmNaive(benchmark::State& state) {
  const auto a = random_matrix(state.range(0), state.range(1), 21);
  const auto b = random_matrix(state.range(1), state.range(2), 22);
  ml::Matrix c;
  for (auto _ : state) {
    naive_matmul(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  set_gflops(state);
}

void BM_GemmBlocked(benchmark::State& state) {
  const auto a = random_matrix(state.range(0), state.range(1), 21);
  const auto b = random_matrix(state.range(1), state.range(2), 22);
  ml::Matrix c;
  for (auto _ : state) {
    ml::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  set_gflops(state);
}

void BM_GemmParallel(benchmark::State& state) {
  exec::ThreadPool pool(4);
  const auto a = random_matrix(state.range(0), state.range(1), 21);
  const auto b = random_matrix(state.range(1), state.range(2), 22);
  ml::Matrix c;
  for (auto _ : state) {
    ml::gemm_nn(a, b, c, /*accumulate=*/false, &pool);
    benchmark::DoNotOptimize(c.data().data());
  }
  set_gflops(state);
}

// (B*S, D, H): trainer kernel-layer shapes at batch 64, 7 servers, then a
// larger shape representative of wider hidden layers.
// UseRealTime throughout: the parallel variant does its work on pool
// threads, which the default CPU-time clock (main thread only) misses.
#define QIF_GEMM_SHAPES \
  ->Args({448, 37, 64})->Args({448, 64, 32})->Args({1024, 128, 128})->UseRealTime()
BENCHMARK(BM_GemmNaive) QIF_GEMM_SHAPES;
BENCHMARK(BM_GemmBlocked) QIF_GEMM_SHAPES;
BENCHMARK(BM_GemmParallel) QIF_GEMM_SHAPES;
#undef QIF_GEMM_SHAPES

// One full training epoch (minibatch Adam + validation eval) on a
// campaign-sized dataset: 7 servers x 37 features, 512 windows.
void BM_TrainerEpoch(benchmark::State& state) {
  monitor::Dataset ds(7, 37);
  sim::Rng rng(31);
  for (std::size_t i = 0; i < 512; ++i) {
    const int label = static_cast<int>(i % 2);
    double* row = ds.append_row(static_cast<std::int64_t>(i), label, label ? 4.0 : 1.0);
    for (std::size_t j = 0; j < ds.width(); ++j) row[j] = rng.normal(0, 1);
  }
  ml::TrainConfig tc;
  tc.max_epochs = 1;
  tc.jobs = static_cast<int>(state.range(0));
  const ml::Trainer trainer(tc);
  for (auto _ : state) {
    ml::KernelNetConfig nc;
    nc.per_server_dim = 37;
    nc.n_servers = 7;
    nc.n_classes = 2;
    ml::KernelNet net(nc);
    ml::Standardizer stdz;
    const auto result = trainer.train(net, stdz, ds);
    benchmark::DoNotOptimize(result.history.data());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_TrainerEpoch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_EndToEndScenario(benchmark::State& state) {
  for (auto _ : state) {
    core::ScenarioConfig cfg;
    cfg.cluster = core::testbed_cluster_config(11);
    cfg.target.workload = "ior-easy-write";
    cfg.target.nodes = {0};
    cfg.target.procs_per_node = 2;
    cfg.target.seed = 11;
    cfg.target.scale = 0.25;
    cfg.monitors = true;
    const auto res = core::run_scenario(cfg);
    benchmark::DoNotOptimize(res.events_executed);
  }
}
BENCHMARK(BM_EndToEndScenario)->Unit(benchmark::kMillisecond);

// Campaign wall-clock proxy: one labelled-window pair the way a campaign
// produces it — a target workload with concurrent interference instances,
// monitors on.  This is the loop the paper's 11k+ IO500 and 23k DLIO
// windows come out of, i.e. the permanent hot path.
void BM_CampaignScenario(benchmark::State& state) {
  for (auto _ : state) {
    core::ScenarioConfig cfg;
    cfg.cluster = core::testbed_cluster_config(11);
    cfg.target.workload = "ior-easy-write";
    cfg.target.nodes = {0, 1};
    cfg.target.procs_per_node = 2;
    cfg.target.seed = 11;
    cfg.target.scale = 0.25;
    core::InterferenceSpec bg;
    bg.workload = "ior-easy-read";
    bg.nodes = {2, 3};
    bg.instances = 2;
    bg.scale = 0.25;
    cfg.interference = bg;
    cfg.monitors = true;
    const auto res = core::run_scenario(cfg);
    benchmark::DoNotOptimize(res.events_executed);
  }
}
BENCHMARK(BM_CampaignScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
