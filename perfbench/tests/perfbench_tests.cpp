// The benchmark's own tests: smoke runs of every workload, the traced
// campaign driver's byte-identity with the library's drivers, and the
// open-loop generator's due-time latency accounting.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "campaign_driver.hpp"
#include "open_loop.hpp"
#include "qif/core/campaign.hpp"
#include "qif/core/datasets.hpp"
#include "qif/serve/registry.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

namespace core = qif::core;
using namespace perfbench;

std::string scratch_dir() {
  const auto dir = std::filesystem::current_path() / "perfbench_tests_work";
  std::filesystem::create_directories(dir);
  return dir.string();
}

void expect_smoke_passes(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 3;
  o.smoke = true;
  o.trace = trace;
  o.work_dir = scratch_dir();
  const RunResult r = run_workload(o);
  EXPECT_GT(r.ledger.total_attempted(), 0u);
  for (const Check& c : r.ledger.checks) EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;
  EXPECT_EQ(r.ledger.total_failed(), 0u);
  const auto& names = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricInfo& m : names) EXPECT_EQ(r.metrics.count(m.name), 1u) << m.name;
  if (!trace) {
    for (const MetricInfo& m : names) EXPECT_GT(r.metrics.at(m.name), 0.0) << m.name;
  }
}

TEST(Smoke, Io500PipelineUntraced) { expect_smoke_passes("io500-pipeline", false); }
TEST(Smoke, Io500PipelineTraced) { expect_smoke_passes("io500-pipeline", true); }
TEST(Smoke, BigclusterWriteUntraced) { expect_smoke_passes("bigcluster-write", false); }
TEST(Smoke, BigclusterWriteTraced) { expect_smoke_passes("bigcluster-write", true); }
TEST(Smoke, CtrlFaultsUntraced) { expect_smoke_passes("ctrl-faults", false); }
TEST(Smoke, CtrlFaultsTraced) { expect_smoke_passes("ctrl-faults", true); }

TEST(TracedDriver, ReproducesRunCampaignByteForByte) {
  core::DatasetOptions opts;
  opts.seed = 5;
  opts.richness = 0.25;
  const auto sequential = core::build_app_dataset("ior-easy-write", opts);

  SpanRecorder rec(true);
  TracedCampaignDriver driver(rec);
  opts.runner = driver.runner();
  const auto traced = core::build_app_dataset("ior-easy-write", opts);
  EXPECT_EQ(qds_bytes(traced), qds_bytes(sequential));
  EXPECT_GT(traced.size(), 0u);
  EXPECT_GT(driver.counters().events, 0u);
  EXPECT_GT(driver.counters().matched_ops, 0u);
  EXPECT_GT(rec.total_s("core.case_sim"), 0.0);
}

TEST(TracedDriver, ReproducesMitigationStudyByteForByte) {
  core::DatasetOptions opts = ctrl_options(9, true);
  core::MitigationStudy expected;
  opts.runner = [&](const core::CampaignConfig& cc) {
    expected = core::run_mitigation_study(cc);
    return expected.on;
  };
  (void)core::build_app_dataset("ior-easy-write", opts);

  SpanRecorder rec(true);
  TracedCampaignDriver driver(rec);
  core::MitigationStudy traced;
  opts.runner = [&](const core::CampaignConfig& cc) {
    traced = driver.run_study(cc);
    return traced.on;
  };
  (void)core::build_app_dataset("ior-easy-write", opts);
  EXPECT_EQ(qds_bytes(traced.off.dataset), qds_bytes(expected.off.dataset));
  EXPECT_EQ(qds_bytes(traced.on.dataset), qds_bytes(expected.on.dataset));
  ASSERT_EQ(traced.on.outcomes.size(), expected.on.outcomes.size());
  for (std::size_t i = 0; i < traced.on.outcomes.size(); ++i) {
    EXPECT_EQ(traced.on.outcomes[i].victim_p99_ms, expected.on.outcomes[i].victim_p99_ms);
    EXPECT_EQ(traced.on.outcomes[i].throttle_waits, expected.on.outcomes[i].throttle_waits);
  }
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanRecorder rec(true);
  {
    ScopedSpan outer(rec, "outer", "core");
    ScopedSpan inner(rec, "inner", "sim");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto self = rec.self_time_by_layer();
  EXPECT_GE(self.at("sim"), 0.004);
  EXPECT_LT(self.at("core"), self.at("sim"));
  EXPECT_NEAR(rec.covered_s(), self.at("sim") + self.at("core"), 1e-9);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  EXPECT_EQ(latencies_from_due({1000, 2000}, {5000, 2500}), (std::vector<double>{4.0, 0.5}));

  // A 20 ms generator stall before request 10: at 1000 rps, requests
  // 10..29 all fell due during it, so each must carry the time it waited
  // behind the stall even though its own submit-to-reply time is short.
  qif::serve::ServingModel model;
  model.kernel = qif::ml::KernelNet(qif::ml::KernelNetConfig{});
  const auto d = static_cast<std::size_t>(model.per_server_dim());
  model.stdz = qif::ml::Standardizer::from_moments(std::vector<double>(d, 0.0),
                                                   std::vector<double>(d, 1.0));
  const std::vector<double> rows(model.feature_dim(), 0.5);
  const ReplyReference ref = single_row_reference(model, rows, 1);
  OpenLoopConfig cfg;
  cfg.rate_rps = 1000.0;
  cfg.duration_s = 0.05;
  cfg.service.max_delay_us = 0;
  cfg.before_submit = [](std::size_t i) {
    if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  const OpenLoopResult r = run_open_loop(
      std::make_shared<const qif::serve::ServingModel>(model), rows, 1, ref, cfg);
  ASSERT_EQ(r.answered.size(), 50u);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_GE(r.latency_us[10], 19000.0);
  EXPECT_GE(r.lag_us[10], 19000.0);
  EXPECT_GE(r.latency_us[20], 9000.0);
  EXPECT_LT(r.latency_us[45], 5000.0);
}

}  // namespace
