#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "campaign_driver.hpp"
#include "open_loop.hpp"
#include "qif/core/training_server.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/export.hpp"
#include "qif/monitor/qds_file.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/serve/registry.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/op_record.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = qif::core;
namespace monitor = qif::monitor;
namespace serve = qif::serve;

namespace {

constexpr int kCampaignJobs = 4;
// Timed set-ups before each iteration.  A set-up takes microseconds, so
// several per iteration give a median that spans the whole run.
constexpr int kSetupsPerIteration = 9;
constexpr int kMinIterations = 3;
constexpr double kServeRateRps = 100000.0;
constexpr double kServeP99LimitUs = 1000.0;
// Sized so a host scheduling stall of a few tens of ms at the fixed rate
// queues instead of shedding; sustained overload still shows as a
// growing backlog.
constexpr std::size_t kServeRing = 1 << 14;
constexpr double kMinMacroF1 = 0.9;
const std::vector<double> kServeLadderRps = {25e3, 50e3, 100e3, 200e3, 400e3, 800e3};
const char* const kFaultPlan = "slow:ost=0,start=2,dur=40,factor=6;stall:ost=1,start=10,dur=8";
const char* const kMitigation = "token:rate=64";
const char* const kCtrlTarget = "ior-easy-write";

// -- small helpers -----------------------------------------------------------

struct Repeats {
  int iterations = 0;
  double first_peak_rss_mib = 0.0;  ///< VmHWM after set-up, warm-up and one iteration
};

/// Runs `body(i)` at least `min_iters` times, then again while the next
/// iteration (predicted by the last one's length) still ends within
/// `seconds` of the first start.  The peak RSS is taken after the first
/// iteration: what one pipeline pass costs, without the allocator creep
/// of repeating it a host-speed-dependent number of times.
Repeats repeat_for(double seconds, int min_iters, const std::function<void(int)>& body) {
  Repeats r;
  const double start = now_s();
  double last = 0.0;
  while (r.iterations < min_iters || (now_s() - start) + last <= seconds) {
    const double t = now_s();
    body(r.iterations);
    last = now_s() - t;
    if (r.iterations++ == 0) r.first_peak_rss_mib = peak_rss_mib();
  }
  return r;
}

/// Times the workload's set-up: building its inputs.  It runs once
/// before anything else and then before every timed iteration, so the
/// median covers the host's speed over the whole run, not one moment.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}

  void run(int times) {
    for (int i = 0; i < times; ++i) {
      const double t0 = now_s();
      setup_();
      samples_.push_back(now_s() - t0);
    }
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  std::function<void()> setup_;
  std::vector<double> samples_;
};

/// Per-iteration stage times in host seconds and in probe units: each
/// divided by the mean of a HostProbe run right before and right after
/// the stage on the same thread.
struct StageTimes {
  HostProbe probe;
  double before_s = 0.0;
  std::vector<double> simulate_s, pipeline_s, simulate_probes, pipeline_probes, probe_s;

  void start() { before_s = probe.run(); }
  void add(double simulate, double pipeline) {
    const double unit = 0.5 * (before_s + probe.run());
    simulate_s.push_back(simulate);
    pipeline_s.push_back(pipeline);
    simulate_probes.push_back(simulate / unit);
    pipeline_probes.push_back(pipeline / unit);
    probe_s.push_back(unit);
  }
};

/// Moves the calling thread to the next CPU it may use on each `next()`
/// and restores its CPU mask on destruction.  The vCPUs of a shared host
/// slow down separately, each for tens of seconds; a single-threaded run
/// left on one of them takes on that vCPU's state, while one iteration per
/// CPU in turn averages over them.  Threads started meanwhile inherit the
/// one-CPU mask, so this is only for a workload single-threaded by
/// definition.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Campaign configs a build_*_dataset function would run, captured through the
/// runner hook without simulating anything.
std::vector<core::CampaignConfig> capture_plan(
    core::DatasetOptions opts,
    const std::function<monitor::Dataset(const core::DatasetOptions&)>& build) {
  std::vector<core::CampaignConfig> plan;
  opts.runner = [&plan](const core::CampaignConfig& cc) {
    plan.push_back(cc);
    return core::CampaignResult{};
  };
  opts.on_result = nullptr;
  (void)build(opts);
  return plan;
}

/// Runs a shrunken copy of one scenario once, after set-up and outside
/// every timed figure: faults in the code and allocator arenas the timed
/// iterations then find warm.  Returns its host seconds.
double warm_up(core::ScenarioConfig cfg) {
  const double t0 = now_s();
  cfg.target.scale *= 0.1;
  (void)core::run_scenario(cfg);
  return now_s() - t0;
}

/// Runs a campaign's last case and its baseline once, for the same reason.
double warm_up(const core::CampaignConfig& cc) {
  const double t0 = now_s();
  const core::CaseSpec& cs = cc.cases.back();
  (void)core::run_campaign_case(cc, cs, core::run_campaign_baseline(cc, cs.seed));
  return now_s() - t0;
}

monitor::Dataset build_io500(const core::DatasetOptions& o) { return core::build_io500_dataset(o); }
monitor::Dataset build_ctrl(const core::DatasetOptions& o) {
  return core::build_app_dataset(kCtrlTarget, o);
}

/// A DatasetOptions::runner that runs each campaign as on-vs-off
/// mitigation twins into `study` and hands back the mitigated side.
core::CampaignRunFn study_runner(core::MitigationStudy& study) {
  return [&study](const core::CampaignConfig& cc) {
    study = core::run_mitigation_study(cc);
    return study.on;
  };
}

std::size_t failed_cases(const std::vector<core::CaseOutcome>& outcomes) {
  return static_cast<std::size_t>(std::count_if(outcomes.begin(), outcomes.end(),
                                                [](const core::CaseOutcome& o) { return !o.ok(); }));
}

/// Window-weighted mean degradation and mean per-case victim p99 — the
/// aggregates `qif campaign --mitigate` prints.
struct SideSummary {
  double deg = 1.0;
  double p99_ms = 0.0;
  std::int64_t throttle_waits = 0;
  double throttle_delay_s = 0.0;
  double mean_admission_level = 0.0;
};

SideSummary summarize(const std::vector<core::CaseOutcome>& outcomes) {
  SideSummary s;
  double deg_sum = 0.0;
  double windows = 0.0;
  double p99_sum = 0.0;
  double level_sum = 0.0;
  int cases = 0;
  for (const core::CaseOutcome& o : outcomes) {
    if (!o.ok()) continue;
    deg_sum += o.mean_degradation * static_cast<double>(o.sampled_windows);
    windows += static_cast<double>(o.sampled_windows);
    p99_sum += o.victim_p99_ms;
    level_sum += o.mean_admission_level;
    s.throttle_waits += o.throttle_waits;
    s.throttle_delay_s += o.throttle_delay_s;
    ++cases;
  }
  if (windows > 0) s.deg = deg_sum / windows;
  if (cases > 0) {
    s.p99_ms = p99_sum / cases;
    s.mean_admission_level = level_sum / cases;
  }
  return s;
}

std::string reference_key(const std::string& workload, std::uint64_t seed) {
  return workload + "/" + std::to_string(seed);
}

/// Compares `hash` with the recorded reference for this seed, when one
/// exists; every iteration's hash must also equal the first one's.
void check_hashes(Ledger& ledger, const RunOptions& o, const std::string& what,
                  const std::vector<std::string>& hashes) {
  const bool same = std::all_of(hashes.begin(), hashes.end(),
                                [&](const std::string& h) { return h == hashes.front(); });
  ledger.check(what + " repeatable", same,
               hashes.front() + " x" + std::to_string(hashes.size()));
  if (o.smoke) return;
  const auto ref = o.references.find(reference_key(o.workload, o.seed));
  if (ref == o.references.end()) {
    std::printf("note  %s: no reference recorded for seed %llu\n", what.c_str(),
                static_cast<unsigned long long>(o.seed));
    return;
  }
  ledger.check(what + " matches reference", hashes.front() == ref->second,
               hashes.front() + " vs " + ref->second);
}

// -- training and serving stages ---------------------------------------------

struct TrainStage {
  double write_s = 0, map_s = 0, split_s = 0, fit_s = 0, eval_s = 0, total_s = 0;
  double macro_f1 = 0;
  int epochs = 0;
  int best_epoch = 0;
  std::string qds_hash;
  std::shared_ptr<const serve::ServingModel> model;
  std::vector<double> held_out;  ///< flattened held-out feature rows
  std::size_t n_held_out = 0;
};

TrainStage train_stage(const monitor::Dataset& ds, const std::string& path, SpanRecorder& rec) {
  TrainStage out;
  const double t0 = now_s();
  double t = t0;
  const auto lap = [&t] {
    const double n = now_s();
    const double d = n - t;
    t = n;
    return d;
  };
  {
    ScopedSpan s(rec, "monitor.write_qds", "monitor");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    monitor::write_dataset_qds(f, ds);
    f.close();
    if (!f) throw std::runtime_error("cannot write " + path);
  }
  out.write_s = lap();
  std::optional<monitor::MappedDataset> mapped;
  {
    ScopedSpan s(rec, "monitor.map_qds", "monitor");
    mapped.emplace(monitor::map_dataset_qds(path));
  }
  out.map_s = lap();
  std::optional<std::pair<monitor::TableView, monitor::TableView>> split;
  {
    ScopedSpan s(rec, "ml.split_dataset", "ml");
    split.emplace(qif::ml::split_dataset(mapped->table, 0.2, 17));
  }
  out.split_s = lap();
  core::TrainingServer server(core::TrainingServerConfig{});
  qif::ml::TrainResult tr;
  {
    ScopedSpan s(rec, "ml.fit", "ml");
    tr = server.fit(split->first);
  }
  out.fit_s = lap();
  {
    ScopedSpan s(rec, "ml.evaluate", "ml");
    out.macro_f1 = server.evaluate(split->second).macro_f1();
  }
  out.eval_s = lap();
  out.total_s = t - t0;
  out.epochs = static_cast<int>(tr.history.size());
  out.best_epoch = tr.best_epoch;

  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  out.qds_hash = hex64(fnv1a(bytes.str()));

  auto model = std::make_shared<serve::ServingModel>();
  model->kind = serve::ServingModel::Kind::kKernel;
  model->kernel = server.net();
  model->stdz = server.standardizer();
  model->n_classes = server.config().n_classes;
  model->version = 1;
  const monitor::TableView& test = split->second;
  out.n_held_out = test.size();
  for (std::size_t k = 0; k < test.size(); ++k) {
    out.held_out.insert(out.held_out.end(), test.row(k), test.row(k) + test.width());
  }
  out.model = std::move(model);
  return out;
}

struct ServeStage {
  OpenLoopResult fixed;       ///< the fixed-rate phase
  double max_rps = 0.0;       ///< highest ladder rate meeting the limit
};

ServeStage serve_stage(const TrainStage& ts, const ReplyReference& ref, bool smoke,
                       SpanRecorder& rec) {
  ServeStage out;
  OpenLoopConfig cfg;
  cfg.rate_rps = kServeRateRps;
  cfg.duration_s = smoke ? 0.05 : 0.3;
  cfg.service.ring_capacity = kServeRing;
  {
    ScopedSpan s(rec, "serve.fixed_rate", "serve", "100k");
    out.fixed = run_open_loop(ts.model, ts.held_out, ts.n_held_out, ref, cfg);
    if (rec.enabled()) {
      // One detail span per request, from its due time to its reply.
      const double start = out.fixed.gen_start_s;
      for (std::size_t k = 0; k < out.fixed.answered.size(); ++k) {
        const std::size_t i = out.fixed.answered[k];
        const double due = start + static_cast<double>(i) / cfg.rate_rps;
        rec.detail("serve.request", "serve", std::to_string(i), due,
                   due + out.fixed.latency_us[k] * 1e-6, s.index());
      }
    }
  }
  ScopedSpan s(rec, "serve.ladder", "serve");
  for (const double rate : kServeLadderRps) {
    OpenLoopConfig rung = cfg;
    rung.rate_rps = rate;
    rung.duration_s = smoke ? 0.02 : 0.2;
    ScopedSpan r(rec, "serve.rung", "serve", std::to_string(static_cast<long>(rate)));
    const OpenLoopResult res = run_open_loop(ts.model, ts.held_out, ts.n_held_out, ref, rung);
    out.fixed.mismatches += res.mismatches;
    if (!res.meets(kServeP99LimitUs)) break;
    out.max_rps = rate;
  }
  return out;
}

// -- per-layer metric assembly -----------------------------------------------

/// Every per-layer metric at zero: a workload that bypasses a layer
/// reports zero for it.
Numbers zero_layers() {
  Numbers n;
  for (const MetricInfo& m : per_layer_metrics()) n[m.name] = 0.0;
  return n;
}

void put_counters(Numbers& m, const LayerCounters& c, double sim_s) {
  m["sim.events"] = static_cast<double>(c.events);
  m["sim.events_per_s"] = sim_s > 0 ? static_cast<double>(c.events) / sim_s : 0.0;
  m["pfs.ops"] = static_cast<double>(c.ops);
  m["pfs.retries"] = static_cast<double>(c.retries);
  m["pfs.timeouts"] = static_cast<double>(c.timeouts);
  m["pfs.failed_ops"] = static_cast<double>(c.failed_ops);
  m["pfs.disk_busy_s"] = c.disk_busy_s;
  m["pfs.queue_wait_s"] = c.queue_wait_s;
  m["pfs.merges"] = c.merges;
  m["trace.matched_ops"] = static_cast<double>(c.matched_ops);
}

/// Campaign-layer numbers from a traced driver run.  `untraced_s` is the
/// same campaign's untraced wall time at `jobs` workers.
void put_campaign(Numbers& m, const SpanRecorder& rec, const TracedCampaignDriver& drv,
                  double untraced_s, int jobs) {
  const double baseline_s = rec.total_s("core.baseline");
  const double case_sim_s = rec.total_s("core.case_sim");
  put_counters(m, drv.counters(), baseline_s + case_sim_s);
  m["core.baseline_s"] = baseline_s;
  m["core.case_sim_s"] = case_sim_s;
  m["core.join_s"] = rec.total_s("core.join_case_result");
  m["core.stitch_s"] = rec.total_s("core.stitch_case_results");
  const std::vector<double> cases = rec.durations("core.case");
  m["core.case_s_p50"] = median(cases);
  m["core.case_s_max"] = cases.empty() ? 0.0 : *std::max_element(cases.begin(), cases.end());
  m["trace.match_s"] = rec.total_s("trace.match");
  double task_sum = 0.0;
  for (const double t : drv.task_s()) task_sum += t;
  const double capacity = jobs * untraced_s;
  m["exec.parallel_efficiency"] = capacity > 0 ? task_sum / capacity : 0.0;
  m["exec.idle_core_s"] = std::max(0.0, capacity - task_sum);
  m["exec.critical_path_s"] = drv.critical_path_s();
}

void put_outcomes(Numbers& m, const std::vector<core::CaseOutcome>& outcomes) {
  for (const core::CaseOutcome& o : outcomes) {
    m["monitor.windows"] += static_cast<double>(o.windows);
    m["monitor.sampled_windows"] += static_cast<double>(o.sampled_windows);
  }
}

/// Span coverage, self times and the tracing overhead.
void put_attribution(Numbers& m, const SpanRecorder& rec, double traced_s, double untraced_s,
                     const RunOptions& o) {
  const double wall = since_process_start_s();
  m["bench.wall_s"] = wall;
  m["bench.span_coverage"] = wall > 0 ? rec.covered_s() / wall : 0.0;
  m["bench.unattributed_s"] = std::max(0.0, wall - rec.covered_s());
  m["bench.tracing_overhead_s"] = traced_s - untraced_s;
  for (const auto& [layer, self] : rec.self_time_by_layer()) m[layer + ".self_s"] = self;
  const std::string path = o.work_dir + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  rec.write_json(path);
  std::printf("spans: %zu written to %s\n", rec.spans().size(), path.c_str());
  std::printf("attribution: wall %.3f s, spans cover %.1f%%, un-attributed %.3f s,"
              " tracing overhead %.3f s (%.3f traced vs %.3f untraced)\n",
              wall, 100.0 * m["bench.span_coverage"], m["bench.unattributed_s"],
              traced_s - untraced_s, traced_s, untraced_s);
  for (const auto& [layer, self] : rec.self_time_by_layer()) {
    std::printf("  self time %-8s %9.3f s\n", layer.c_str(), self);
  }
}

void put_train(Numbers& m, const TrainStage& ts) {
  m["monitor.qds_write_s"] = ts.write_s;
  m["monitor.qds_map_s"] = ts.map_s;
  m["ml.epochs"] = ts.epochs;
  m["ml.best_epoch"] = ts.best_epoch;
  m["ml.epoch_s"] = ts.epochs > 0 ? ts.fit_s / ts.epochs : 0.0;
  m["ml.eval_s"] = ts.eval_s;
  m["ml.macro_f1"] = ts.macro_f1;
}

void put_serve(Numbers& m, const ServeStage& ss, const BatchTiming& bt) {
  const OpenLoopResult& f = ss.fixed;
  m["serve.batches"] = static_cast<double>(f.batches);
  m["serve.mean_batch_rows"] = f.batches > 0 ? static_cast<double>(f.answered.size()) / f.batches : 0.0;
  m["serve.full_batches"] = static_cast<double>(f.full_batches);
  m["serve.timeout_batches"] = static_cast<double>(f.timeout_batches);
  m["serve.rejected"] = static_cast<double>(f.rejected);
  m["serve.batch_us_p50"] = median(bt.sample_us);
  std::vector<double> queue_wait;
  for (std::size_t i = 0; i < f.latency_us.size(); ++i) {
    const auto it = bt.median_us_by_rows.find(f.request_rows[i]);
    const double batch_us = it != bt.median_us_by_rows.end() ? it->second : 0.0;
    queue_wait.push_back(f.latency_us[i] - batch_us);
  }
  m["serve.queue_wait_us_p99"] = quantile(queue_wait, 0.99);
  m["serve.generator_lag_us_p99"] = quantile(f.lag_us, 0.99);
  m["serve.p50_us"] = f.latency_p(0.5);
  m["serve.p99_us"] = f.latency_p(0.99);
  m["serve.max_rps"] = ss.max_rps;
}

void put_ctrl(Numbers& m, const core::MitigationStudy& study) {
  const SideSummary off = summarize(study.off.outcomes);
  const SideSummary on = summarize(study.on.outcomes);
  m["ctrl.throttle_waits"] = static_cast<double>(on.throttle_waits);
  m["ctrl.throttle_delay_s"] = on.throttle_delay_s;
  m["ctrl.mean_admission_level"] = on.mean_admission_level;
  m["ctrl.mitigated_deg"] = on.deg;
  m["ctrl.victim_p99_ms"] = on.p99_ms;
  m["ctrl.unmitigated_deg"] = off.deg;
  m["ctrl.unmitigated_victim_p99_ms"] = off.p99_ms;
}

/// Share of `attempted` that did not fail; 1 when nothing was attempted.
double pass_share(std::uint64_t failed, std::uint64_t attempted) {
  return attempted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
}

/// The end-to-end metrics every workload reports (medians over
/// iterations); the stage medians in host seconds go to `info`.
Numbers end_to_end(const SetupTimer& setup, const StageTimes& times, const Repeats& reps,
                   const Ledger& ledger, Numbers& info) {
  Numbers m;
  m["setup_s"] = setup.median_s();
  m["simulate_probes"] = median(times.simulate_probes);
  m["pipeline_probes"] = median(times.pipeline_probes);
  m["peak_rss_mib"] = reps.first_peak_rss_mib;
  // The lower of the check pass share and the case/request pass share, so
  // one failed output check weighs as much as it does in `correct`, not
  // 1 in ~10^5 requests.
  const auto failed_checks = static_cast<std::uint64_t>(std::count_if(
      ledger.checks.begin(), ledger.checks.end(), [](const Check& c) { return !c.ok; }));
  m["ok_rate"] = std::min(pass_share(failed_checks, ledger.checks.size()),
                          pass_share(ledger.failed, ledger.attempted));
  info["iterations"] = reps.iterations;
  info["simulate_s"] = median(times.simulate_s);
  info["pipeline_s"] = median(times.pipeline_s);
  info["probe_ms"] = 1e3 * median(times.probe_s);
  return m;
}

// -- io500-pipeline ------------------------------------------------------------

void serve_checks(Ledger& ledger, const ServeStage& ss) {
  ledger.attempted += ss.fixed.offered;
  ledger.failed += ss.fixed.rejected;
  ledger.check("serve replies == single-row predict_batch", ss.fixed.mismatches == 0,
               std::to_string(ss.fixed.mismatches) + " mismatches");
}

RunResult run_io500(const RunOptions& o) {
  RunResult out;
  SpanRecorder rec(o.trace);
  core::DatasetOptions opts = io500_options(o.seed);
  std::vector<core::CampaignConfig> plan;
  SetupTimer setup([&] {
    ScopedSpan s(rec, "bench.setup", "bench");
    plan = capture_plan(opts, build_io500);
  });
  setup.run(1);
  double warm_up_s = 0.0;
  {
    ScopedSpan s(rec, "bench.warm_up", "bench");
    warm_up_s = warm_up(plan.front());
  }
  const std::string qds_path = o.work_dir + "/io500-seed" + std::to_string(o.seed) + ".qds";
  std::vector<core::CaseOutcome> outcomes;
  opts.on_result = [&outcomes](const std::string&, const core::CampaignResult& r) {
    outcomes.insert(outcomes.end(), r.outcomes.begin(), r.outcomes.end());
  };
  Ledger& ledger = out.ledger;

  if (!o.trace) {
    StageTimes times;
    std::vector<double> windows_per_s, train_s, f1, p50, p99, max_rps;
    std::vector<std::string> hashes;
    opts.runner = qif::exec::campaign_runner(kCampaignJobs);
    const Repeats reps = repeat_for(o.smoke ? 0.0 : o.seconds, o.smoke ? 1 : kMinIterations, [&](int) {
      setup.run(kSetupsPerIteration);
      outcomes.clear();
      times.start();
      const double t0 = now_s();
      const monitor::Dataset ds = core::build_io500_dataset(opts);
      const double t_campaign = now_s() - t0;
      const TrainStage ts = train_stage(ds, qds_path, rec);
      times.add(t_campaign, t_campaign + ts.total_s);
      const ReplyReference ref = single_row_reference(*ts.model, ts.held_out, ts.n_held_out);
      const ServeStage ss = serve_stage(ts, ref, o.smoke, rec);
      windows_per_s.push_back(static_cast<double>(ds.size()) / t_campaign);
      train_s.push_back(ts.total_s);
      f1.push_back(ts.macro_f1);
      p50.push_back(ss.fixed.latency_p(0.5));
      p99.push_back(ss.fixed.latency_p(0.99));
      max_rps.push_back(ss.max_rps);
      hashes.push_back(ts.qds_hash);
      ledger.attempted += outcomes.size();
      ledger.failed += failed_cases(outcomes);
      serve_checks(ledger, ss);
      std::printf("iteration: campaign %.3f s (%zu windows), train %.3f s, macro-F1 %.4f,"
                  " serve p50 %.1f us p99 %.1f us, max %.0f rps\n",
                  t_campaign, ds.size(), ts.total_s, ts.macro_f1, p50.back(), p99.back(),
                  ss.max_rps);
    });
    check_hashes(ledger, o, ".qds bytes", hashes);
    ledger.check("macro-F1 >= 0.9", median(f1) >= kMinMacroF1, json_number(median(f1)));
    out.info = {{"warm_up_s", warm_up_s},
                {"campaign_windows_per_s", median(windows_per_s)},
                {"train_s", median(train_s)},
                {"macro_f1", median(f1)},
                {"serve_p50_us", median(p50)},
                {"serve_p99_us", median(p99)},
                {"serve_max_rps", median(max_rps)}};
    out.metrics = end_to_end(setup, times, reps, ledger, out.info);
    return out;
  }

  // Traced run: untraced references first (4 jobs for the efficiency
  // denominator and the identity check, 1 job for the tracing overhead).
  opts.runner = qif::exec::campaign_runner(kCampaignJobs);
  double t = now_s();
  monitor::Dataset reference;
  {
    ScopedSpan s(rec, "bench.reference_campaign_jobs4", "bench");
    reference = core::build_io500_dataset(opts);
  }
  const double untraced_jobs4_s = now_s() - t;
  opts.runner = nullptr;
  t = now_s();
  {
    ScopedSpan s(rec, "bench.reference_campaign_jobs1", "bench");
    (void)core::build_io500_dataset(opts);
  }
  const double untraced_jobs1_s = now_s() - t;
  outcomes.clear();
  TracedCampaignDriver driver(rec);
  opts.runner = driver.runner();
  t = now_s();
  monitor::Dataset ds;
  {
    ScopedSpan s(rec, "bench.traced_campaign", "bench");
    ds = core::build_io500_dataset(opts);
  }
  const double traced_s = now_s() - t;
  ledger.check("traced dataset == untraced dataset", qds_bytes(ds) == qds_bytes(reference));
  ledger.attempted += outcomes.size();
  ledger.failed += failed_cases(outcomes);
  const TrainStage ts = train_stage(ds, qds_path, rec);
  check_hashes(ledger, o, ".qds bytes", {ts.qds_hash});
  ledger.check("macro-F1 >= 0.9", ts.macro_f1 >= kMinMacroF1, json_number(ts.macro_f1));
  const ReplyReference ref = single_row_reference(*ts.model, ts.held_out, ts.n_held_out);
  const ServeStage ss = serve_stage(ts, ref, o.smoke, rec);
  serve_checks(ledger, ss);
  BatchTiming bt;
  {
    ScopedSpan s(rec, "serve.retime_batches", "serve");
    bt = time_batches(*ts.model, ts.held_out, ts.n_held_out, ss.fixed.batch_rows, 2000);
  }

  out.metrics = zero_layers();
  put_campaign(out.metrics, rec, driver, untraced_jobs4_s, kCampaignJobs);
  put_outcomes(out.metrics, outcomes);
  put_train(out.metrics, ts);
  put_serve(out.metrics, ss, bt);
  put_attribution(out.metrics, rec, traced_s, untraced_jobs1_s, o);
  out.info = {{"warm_up_s", warm_up_s},
              {"untraced_campaign_jobs4_s", untraced_jobs4_s},
              {"untraced_campaign_jobs1_s", untraced_jobs1_s},
              {"traced_campaign_s", traced_s}};
  return out;
}

// -- bigcluster-write ----------------------------------------------------------

RunResult run_bigcluster(const RunOptions& o) {
  RunResult out;
  SpanRecorder rec(o.trace);
  core::ScenarioConfig cfg;
  SetupTimer setup([&] {
    ScopedSpan s(rec, "bench.setup", "bench");
    cfg = bigcluster_config(o.seed, o.smoke);
    // The cluster the config describes: the first thing run_scenario builds.
    qif::sim::Simulation sim;
    const qif::pfs::Cluster cluster(sim, cfg.cluster);
  });
  setup.run(1);
  double warm_up_s = 0.0;
  {
    ScopedSpan s(rec, "bench.warm_up", "bench");
    warm_up_s = warm_up(cfg);
  }
  Ledger& ledger = out.ledger;
  // One attempted unit per scenario run: it fails unless the target
  // finished with no failed op.
  const auto check_run = [&](const core::ScenarioResult& r) {
    LayerCounters c;
    c.add_scenario(r, false);
    ++ledger.attempted;
    if (!r.target_finished || c.failed_ops != 0) ++ledger.failed;
    return c;
  };

  if (!o.trace) {
    StageTimes times;
    std::vector<std::string> hashes;
    const Repeats reps = repeat_for(o.smoke ? 0.0 : o.seconds, o.smoke ? 1 : kMinIterations, [&](int) {
      setup.run(kSetupsPerIteration);
      times.start();
      const double t0 = now_s();
      const core::ScenarioResult r = core::run_scenario(cfg);
      const double t1 = now_s();
      // The scenario is the whole pipeline here.
      times.add(t1 - t0, t1 - t0);
      hashes.push_back(hex64(qif::trace::trace_fingerprint(r.trace)));
      const LayerCounters c = check_run(r);
      std::printf("iteration: scenario %.3f s, %llu events, %llu ops, fingerprint %s\n", t1 - t0,
                  static_cast<unsigned long long>(r.events_executed),
                  static_cast<unsigned long long>(c.ops), hashes.back().c_str());
    });
    check_hashes(ledger, o, "noisy trace fingerprint", hashes);
    out.info = {{"warm_up_s", warm_up_s}};
    out.metrics = end_to_end(setup, times, reps, ledger, out.info);
    return out;
  }

  double t = now_s();
  std::string untraced_fp;
  {
    ScopedSpan s(rec, "bench.reference_scenario", "bench");
    untraced_fp = hex64(qif::trace::trace_fingerprint(core::run_scenario(cfg).trace));
  }
  const double untraced_s = now_s() - t;
  t = now_s();
  core::ScenarioResult r;
  {
    ScopedSpan s(rec, "sim.run_scenario", "sim");
    r = core::run_scenario(cfg);
  }
  const double traced_s = now_s() - t;
  const std::string fp = hex64(qif::trace::trace_fingerprint(r.trace));
  ledger.check("traced fingerprint == untraced", fp == untraced_fp, fp);
  check_hashes(ledger, o, "noisy trace fingerprint", {fp});
  const LayerCounters c = check_run(r);
  out.metrics = zero_layers();
  put_counters(out.metrics, c, traced_s);
  put_attribution(out.metrics, rec, traced_s, untraced_s, o);
  out.info = {{"warm_up_s", warm_up_s}};
  return out;
}

// -- ctrl-faults ---------------------------------------------------------------

void ctrl_checks(Ledger& ledger, const core::MitigationStudy& study) {
  const SideSummary off = summarize(study.off.outcomes);
  const SideSummary on = summarize(study.on.outcomes);
  ledger.attempted += study.off.outcomes.size() + study.on.outcomes.size();
  ledger.failed += failed_cases(study.off.outcomes) + failed_cases(study.on.outcomes);
  char detail[160];
  std::snprintf(detail, sizeof detail, "deg %.3f -> %.3f, victim p99 %.2f -> %.2f ms", off.deg,
                on.deg, off.p99_ms, on.p99_ms);
  ledger.check("mitigation on beats off", on.deg < off.deg && on.p99_ms < off.p99_ms, detail);
}

RunResult run_ctrl(const RunOptions& o) {
  RunResult out;
  SpanRecorder rec(o.trace);
  core::DatasetOptions opts = ctrl_options(o.seed, o.smoke);
  std::vector<core::CampaignConfig> plan;
  SetupTimer setup([&] {
    ScopedSpan s(rec, "bench.setup", "bench");
    plan = capture_plan(opts, build_ctrl);
  });
  setup.run(1);
  double warm_up_s = 0.0;
  {
    ScopedSpan s(rec, "bench.warm_up", "bench");
    warm_up_s = warm_up(plan.front());
  }
  core::MitigationStudy study;
  Ledger& ledger = out.ledger;

  if (!o.trace) {
    StageTimes times;
    std::vector<double> windows_per_s, deg, p99;
    std::vector<std::string> hashes;
    opts.runner = study_runner(study);
    // The study runs on one thread (a pool of one).
    CpuRotation cpus;
    const Repeats reps = repeat_for(o.smoke ? 0.0 : o.seconds, o.smoke ? 1 : kMinIterations, [&](int) {
      cpus.next();
      setup.run(kSetupsPerIteration);
      times.start();
      const double t0 = now_s();
      (void)build_ctrl(opts);
      const double t1 = now_s();
      // The twins are the whole pipeline here.
      times.add(t1 - t0, t1 - t0);
      hashes.push_back(hex64(fnv1a(qds_bytes(study.off.dataset))));
      const SideSummary on = summarize(study.on.outcomes);
      const auto windows = static_cast<double>(study.off.dataset.size() + study.on.dataset.size());
      windows_per_s.push_back(windows / (t1 - t0));
      deg.push_back(on.deg);
      p99.push_back(on.p99_ms);
      ctrl_checks(ledger, study);
      std::printf("iteration: twins %.3f s (%.0f windows), mitigated deg %.3f, victim p99 %.2f ms\n",
                  t1 - t0, windows, on.deg, on.p99_ms);
    });
    check_hashes(ledger, o, "off-twin .qds bytes", hashes);
    out.info = {{"warm_up_s", warm_up_s},
                {"campaign_windows_per_s", median(windows_per_s)},
                {"mitigated_deg", median(deg)},
                {"victim_p99_ms", median(p99)}};
    out.metrics = end_to_end(setup, times, reps, ledger, out.info);
    return out;
  }

  opts.runner = study_runner(study);
  double t = now_s();
  {
    ScopedSpan s(rec, "bench.reference_study", "bench");
    (void)build_ctrl(opts);
  }
  const double untraced_s = now_s() - t;
  const core::MitigationStudy reference = std::move(study);
  TracedCampaignDriver driver(rec);
  core::MitigationStudy traced;
  opts.runner = [&](const core::CampaignConfig& cc) {
    traced = driver.run_study(cc);
    return traced.on;
  };
  t = now_s();
  {
    ScopedSpan s(rec, "bench.traced_study", "bench");
    (void)build_ctrl(opts);
  }
  const double traced_s = now_s() - t;
  ledger.check("traced twins == untraced twins",
               qds_bytes(traced.off.dataset) == qds_bytes(reference.off.dataset) &&
                   qds_bytes(traced.on.dataset) == qds_bytes(reference.on.dataset));
  check_hashes(ledger, o, "off-twin .qds bytes", {hex64(fnv1a(qds_bytes(traced.off.dataset)))});
  ctrl_checks(ledger, traced);
  out.metrics = zero_layers();
  put_campaign(out.metrics, rec, driver, untraced_s, 1);
  put_outcomes(out.metrics, traced.off.outcomes);
  put_outcomes(out.metrics, traced.on.outcomes);
  put_ctrl(out.metrics, traced);
  put_attribution(out.metrics, rec, traced_s, untraced_s, o);
  out.info = {{"warm_up_s", warm_up_s}};
  return out;
}

}  // namespace

// -- public surface --------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"io500-pipeline", "bigcluster-write",
                                                  "ctrl-faults"};
  return kNames;
}

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> kMetrics = {
      {"setup_s", "s"},          {"simulate_probes", "probe"}, {"pipeline_probes", "probe"},
      {"peak_rss_mib", "MiB"},   {"ok_rate", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> kMetrics = {
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.self_s", "s"},
      {"core.baseline_s", "s"},
      {"core.case_sim_s", "s"},
      {"core.join_s", "s"},
      {"core.stitch_s", "s"},
      {"core.case_s_p50", "s"},
      {"core.case_s_max", "s"},
      {"core.self_s", "s"},
      {"trace.matched_ops", "count"},
      {"trace.match_s", "s"},
      {"trace.self_s", "s"},
      {"exec.parallel_efficiency", "ratio"},
      {"exec.idle_core_s", "s"},
      {"exec.critical_path_s", "s"},
      {"pfs.ops", "count"},
      {"pfs.retries", "count"},
      {"pfs.timeouts", "count"},
      {"pfs.failed_ops", "count"},
      {"pfs.disk_busy_s", "sim_s"},
      {"pfs.queue_wait_s", "sim_s"},
      {"pfs.merges", "count"},
      {"monitor.windows", "count"},
      {"monitor.sampled_windows", "count"},
      {"monitor.qds_write_s", "s"},
      {"monitor.qds_map_s", "s"},
      {"monitor.self_s", "s"},
      {"ml.epochs", "count"},
      {"ml.best_epoch", "count"},
      {"ml.epoch_s", "s"},
      {"ml.eval_s", "s"},
      {"ml.macro_f1", "ratio"},
      {"ml.self_s", "s"},
      {"serve.batches", "count"},
      {"serve.mean_batch_rows", "count"},
      {"serve.full_batches", "count"},
      {"serve.timeout_batches", "count"},
      {"serve.rejected", "count"},
      {"serve.batch_us_p50", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.generator_lag_us_p99", "us"},
      {"serve.p50_us", "us"},
      {"serve.p99_us", "us"},
      {"serve.max_rps", "1/s"},
      {"serve.self_s", "s"},
      {"ctrl.throttle_waits", "count"},
      {"ctrl.throttle_delay_s", "sim_s"},
      {"ctrl.mean_admission_level", "ratio"},
      {"ctrl.mitigated_deg", "ratio"},
      {"ctrl.victim_p99_ms", "sim_ms"},
      {"ctrl.unmitigated_deg", "ratio"},
      {"ctrl.unmitigated_victim_p99_ms", "sim_ms"},
      {"bench.wall_s", "s"},
      {"bench.span_coverage", "ratio"},
      {"bench.unattributed_s", "s"},
      {"bench.tracing_overhead_s", "s"},
      {"bench.self_s", "s"},
  };
  return kMetrics;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "io500-pipeline") return run_io500(options);
  if (options.workload == "bigcluster-write") return run_bigcluster(options);
  if (options.workload == "ctrl-faults") return run_ctrl(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

std::string reference_hash(const std::string& workload, std::uint64_t seed,
                           std::string* note) {
  char buf[160];
  if (workload == "io500-pipeline") {
    core::DatasetOptions opts = io500_options(seed);
    opts.runner = qif::exec::campaign_runner(kCampaignJobs);
    const monitor::Dataset ds = core::build_io500_dataset(opts);
    SpanRecorder off(false);
    const TrainStage ts = train_stage(ds, "perfbench-reference.qds", off);
    std::remove("perfbench-reference.qds");
    std::snprintf(buf, sizeof buf, "windows=%zu macro_f1=%.4f", ds.size(), ts.macro_f1);
    if (note != nullptr) *note = buf;
    return ts.qds_hash;
  }
  if (workload == "bigcluster-write") {
    const core::ScenarioResult r = core::run_scenario(bigcluster_config(seed, false));
    std::snprintf(buf, sizeof buf, "events=%llu finished=%d",
                  static_cast<unsigned long long>(r.events_executed), r.target_finished ? 1 : 0);
    if (note != nullptr) *note = buf;
    return hex64(qif::trace::trace_fingerprint(r.trace));
  }
  if (workload == "ctrl-faults") {
    core::DatasetOptions opts = ctrl_options(seed, false);
    core::MitigationStudy study;
    opts.runner = study_runner(study);
    (void)build_ctrl(opts);
    const SideSummary off = summarize(study.off.outcomes);
    const SideSummary on = summarize(study.on.outcomes);
    std::snprintf(buf, sizeof buf, "deg %.3f->%.3f p99_ms %.2f->%.2f", off.deg, on.deg,
                  off.p99_ms, on.p99_ms);
    if (note != nullptr) *note = buf;
    return hex64(fnv1a(qds_bytes(study.off.dataset)));
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

core::DatasetOptions io500_options(std::uint64_t seed) {
  core::DatasetOptions opts;
  opts.seed = seed;
  opts.richness = 1.0;
  return opts;
}

core::ScenarioConfig bigcluster_config(std::uint64_t seed, bool smoke) {
  // What `qif run ior-easy-write --topology 1008x16x8 --noise ior-easy-write
  // --instances 1006 --scale 4 --seed SEED` builds for its noisy run.
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  cfg.cluster.n_client_nodes = smoke ? 16 : 1008;
  cfg.cluster.n_oss = smoke ? 4 : 16;
  cfg.cluster.osts_per_oss = smoke ? 2 : 8;
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = smoke ? 0.25 : 4.0;
  cfg.monitors = false;
  core::InterferenceSpec noise;
  noise.workload = "ior-easy-write";
  for (qif::pfs::NodeId n = 2; n < cfg.cluster.n_client_nodes; ++n) noise.nodes.push_back(n);
  noise.instances = smoke ? 14 : 1006;
  noise.seed = 77;
  cfg.interference = noise;
  return cfg;
}

core::DatasetOptions ctrl_options(std::uint64_t seed, bool smoke) {
  core::DatasetOptions opts;
  opts.seed = seed;
  opts.richness = smoke ? 0.25 : 1.0;
  opts.faults = qif::pfs::faults::parse_fault_plan(kFaultPlan);
  opts.mitigation = qif::ctrl::parse_mitigation(kMitigation);
  return opts;
}

std::string qds_bytes(const monitor::Dataset& ds) {
  std::ostringstream os;
  monitor::write_dataset_qds(os, ds);
  return os.str();
}

}  // namespace perfbench
