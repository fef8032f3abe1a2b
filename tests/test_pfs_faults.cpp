// Tests for the deterministic fault-injection layer: plan parsing (with
// pinned diagnostics), episode mechanics on a live cluster, the client
// timeout/retry machine, and the bit-identity contract for empty or
// never-triggered plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "qif/core/scenario.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/pfs/faults.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs::faults {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan) {
  const FaultPlan plan = parse_fault_plan("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.size(), 0u);
  EXPECT_EQ(to_spec(plan), "");
}

TEST(FaultPlanParse, ParsesEveryKind) {
  const FaultPlan plan = parse_fault_plan(
      "slow:ost=1,start=5,dur=30,factor=8;"
      "stall:ost=0,start=40,dur=10;"
      "drop:p=0.25,start=0.5,dur=2.5");
  ASSERT_EQ(plan.slow_disks.size(), 1u);
  ASSERT_EQ(plan.stalls.size(), 1u);
  ASSERT_EQ(plan.rpc_loss.size(), 1u);
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.slow_disks[0].ost, 1);
  EXPECT_EQ(plan.slow_disks[0].start, 5 * sim::kSecond);
  EXPECT_EQ(plan.slow_disks[0].duration, 30 * sim::kSecond);
  EXPECT_DOUBLE_EQ(plan.slow_disks[0].factor, 8.0);
  EXPECT_EQ(plan.stalls[0].ost, 0);
  EXPECT_EQ(plan.stalls[0].start, 40 * sim::kSecond);
  EXPECT_EQ(plan.stalls[0].duration, 10 * sim::kSecond);
  EXPECT_DOUBLE_EQ(plan.rpc_loss[0].probability, 0.25);
  EXPECT_EQ(plan.rpc_loss[0].start, 500 * sim::kMillisecond);
  EXPECT_EQ(plan.rpc_loss[0].duration, 2500 * sim::kMillisecond);
}

TEST(FaultPlanParse, RoundTripsThroughSpec) {
  const std::string spec =
      "slow:ost=3,start=1.5,dur=12,factor=4;"
      "slow:ost=0,start=0,dur=60,factor=1.5;"
      "stall:ost=2,start=8,dur=0.25;"
      "drop:p=0.05,start=3,dur=9";
  const FaultPlan plan = parse_fault_plan(spec);
  const std::string canonical = to_spec(plan);
  const FaultPlan again = parse_fault_plan(canonical);
  EXPECT_EQ(to_spec(again), canonical);
  ASSERT_EQ(again.slow_disks.size(), 2u);
  ASSERT_EQ(again.stalls.size(), 1u);
  ASSERT_EQ(again.rpc_loss.size(), 1u);
  EXPECT_EQ(again.slow_disks[0].ost, plan.slow_disks[0].ost);
  EXPECT_EQ(again.slow_disks[0].start, plan.slow_disks[0].start);
  EXPECT_EQ(again.slow_disks[0].duration, plan.slow_disks[0].duration);
  EXPECT_DOUBLE_EQ(again.slow_disks[0].factor, plan.slow_disks[0].factor);
  EXPECT_EQ(again.stalls[0].start, plan.stalls[0].start);
  EXPECT_DOUBLE_EQ(again.rpc_loss[0].probability, plan.rpc_loss[0].probability);
}

void expect_parse_error(const std::string& spec, const std::string& message) {
  try {
    (void)parse_fault_plan(spec);
    FAIL() << "expected parse failure for: " << spec;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message) << "spec: " << spec;
  }
}

TEST(FaultPlanParse, DiagnosticsNameClauseAndOffset) {
  // Pinned formats: fuzz-found rejections must stay diagnosable, so these
  // exact strings are part of the parser's contract.
  expect_parse_error("bogus:x=1",
                     "fault plan: clause 1, offset 0: unknown fault kind 'bogus'");
  expect_parse_error("slow:ost=abc,start=0,dur=5,factor=2",
                     "fault plan: clause 1, offset 9: bad number 'abc' for 'ost'");
  expect_parse_error(
      "slow:ost=0,start=0,dur=5,factor=2;stall:ost=0",
      "fault plan: clause 2, offset 34: missing required key 'start'");
  expect_parse_error(
      "slow:ost=0,start=0,dur=5,factor=2,zap=1",
      "fault plan: clause 1, offset 34: unknown key 'zap'");
  expect_parse_error("slow:ost=0,start=0,dur=1,factor=0.5",
                     "fault plan: clause 1, offset 0: factor must be >= 1");
  expect_parse_error("drop:p=1.5,start=0,dur=1",
                     "fault plan: clause 1, offset 0: p must be in [0,1]");
  expect_parse_error("stall:ost=0,start=0,dur=0",
                     "fault plan: clause 1, offset 0: need start >= 0 and dur > 0");
  expect_parse_error(";", "fault plan: clause 1, offset 0: empty clause");
  expect_parse_error("stall", "fault plan: clause 1, offset 0: "
                              "expected 'kind:' prefix (slow|stall|drop)");
  expect_parse_error("stall:ost", "fault plan: clause 1, offset 6: expected key=value");
}

// ---------------------------------------------------------------------------
// Injector mechanics against a live cluster
// ---------------------------------------------------------------------------

TEST(FaultInjector, RejectsOutOfRangeOst) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(5));  // 3 OSS x 2 OST = 6
  {
    FaultPlan plan;
    plan.slow_disks.push_back({6, 0, sim::kSecond, 2.0});
    EXPECT_THROW(FaultInjector(cluster, plan, 1), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.stalls.push_back({-1, 0, sim::kSecond});
    EXPECT_THROW(FaultInjector(cluster, plan, 1), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.rpc_loss.push_back({0, sim::kSecond, 1.5});
    EXPECT_THROW(FaultInjector(cluster, plan, 1), std::invalid_argument);
  }
}

TEST(FaultInjector, SlowEpisodesStackMultiplicativelyAndRestoreExactly) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(6));
  FaultPlan plan;
  plan.slow_disks.push_back({0, 2 * sim::kSecond, 8 * sim::kSecond, 2.0});
  plan.slow_disks.push_back({0, 5 * sim::kSecond, 10 * sim::kSecond, 3.0});
  FaultInjector injector(cluster, plan, 42);
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 1.0);
  s.run_until(3 * sim::kSecond);
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 2.0);
  s.run_until(6 * sim::kSecond);  // both active: factors stack
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 6.0);
  s.run_until(11 * sim::kSecond);  // first episode ended at t=10
  EXPECT_DOUBLE_EQ(cluster.ost(0).disk().fault_multiplier(), 3.0);
  s.run_until(16 * sim::kSecond);  // all episodes over
  // Exactly 1.0, not 1.0-plus-epsilon: the restore must be drift-free.
  EXPECT_EQ(cluster.ost(0).disk().fault_multiplier(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.ost(1).disk().fault_multiplier(), 1.0);  // untouched
  EXPECT_EQ(injector.activations(), 2);
}

TEST(FaultInjector, StallWindowsNestByDepth) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(7));
  FaultPlan plan;
  plan.stalls.push_back({1, sim::kSecond, 4 * sim::kSecond});
  plan.stalls.push_back({1, 2 * sim::kSecond, sim::kSecond});
  FaultInjector injector(cluster, plan, 42);
  EXPECT_FALSE(cluster.ost(1).disk().stalled());
  s.run_until(1500 * sim::kMillisecond);
  EXPECT_TRUE(cluster.ost(1).disk().stalled());
  s.run_until(3500 * sim::kMillisecond);  // inner window over, outer still on
  EXPECT_TRUE(cluster.ost(1).disk().stalled());
  s.run_until(6 * sim::kSecond);
  EXPECT_FALSE(cluster.ost(1).disk().stalled());
}

TEST(FaultInjector, StallAndSlowEpisodesOnOneOstRestoreExactly) {
  // Nested stalls and a slow episode on the same OST, stepped through
  // run_until boundaries that fall inside every episode: the stall unwinds
  // by depth, the multiplier drops back to exactly 1.0 while the outer
  // stall is still on, and both kinds count as activations.
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(5));
  FaultPlan plan;
  plan.stalls.push_back({3, sim::kSecond, 4 * sim::kSecond});
  plan.stalls.push_back({3, 2 * sim::kSecond, sim::kSecond});  // nested
  plan.slow_disks.push_back({3, sim::kSecond, 2 * sim::kSecond, 5.0});
  FaultInjector injector(cluster, plan, 77);
  s.run_until(1500 * sim::kMillisecond);
  EXPECT_TRUE(cluster.ost(3).disk().stalled());
  EXPECT_DOUBLE_EQ(cluster.ost(3).disk().fault_multiplier(), 5.0);
  s.run_until(3500 * sim::kMillisecond);  // inner stall + slow over, outer on
  EXPECT_TRUE(cluster.ost(3).disk().stalled());
  EXPECT_EQ(cluster.ost(3).disk().fault_multiplier(), 1.0);
  s.run_until(6 * sim::kSecond);
  EXPECT_FALSE(cluster.ost(3).disk().stalled());
  EXPECT_EQ(cluster.ost(3).disk().fault_multiplier(), 1.0);
  EXPECT_EQ(injector.activations(), 3);
}

TEST(FaultInjector, LossWindowsComposeAndGateDraws) {
  sim::Simulation s;
  Cluster cluster(s, core::testbed_cluster_config(8));
  FaultPlan plan;
  plan.rpc_loss.push_back({sim::kSecond, 2 * sim::kSecond, 0.5});
  plan.rpc_loss.push_back({2 * sim::kSecond, 2 * sim::kSecond, 0.5});
  FaultInjector injector(cluster, plan, 42);
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.0);
  EXPECT_FALSE(injector.should_drop_message());  // outside any window: no draw
  s.run_until(1500 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.5);
  s.run_until(2500 * sim::kMillisecond);
  // Independent overlapping windows: 1 - (1-0.5)(1-0.5).
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.75);
  int drops = 0;
  for (int i = 0; i < 1000; ++i) drops += injector.should_drop_message() ? 1 : 0;
  EXPECT_GT(drops, 600);  // ~750 expected
  EXPECT_LT(drops, 900);
  EXPECT_EQ(injector.messages_dropped(), static_cast<std::uint64_t>(drops));
  s.run_until(5 * sim::kSecond);
  EXPECT_DOUBLE_EQ(injector.active_loss_probability(), 0.0);
  EXPECT_FALSE(injector.should_drop_message());
}

// ---------------------------------------------------------------------------
// Scenario-level behaviour
// ---------------------------------------------------------------------------

core::ScenarioConfig fault_scenario(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(seed);
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = seed;
  cfg.target.scale = 0.5;
  cfg.monitors = false;
  return cfg;
}

FaultPlan slow_everywhere(double factor) {
  FaultPlan plan;
  for (OstId ost = 0; ost < 6; ++ost) {
    plan.slow_disks.push_back({ost, 0, 600 * sim::kSecond, factor});
  }
  return plan;
}

FaultPlan stall_everywhere(sim::SimDuration duration) {
  FaultPlan plan;
  for (OstId ost = 0; ost < 6; ++ost) plan.stalls.push_back({ost, 0, duration});
  return plan;
}

struct FaultTotals {
  long long retries = 0;
  long long timeouts = 0;
  long long failed = 0;
};

FaultTotals totals(const trace::TraceLog& log) {
  FaultTotals t;
  for (const trace::OpRecord& rec : log.records()) {
    t.retries += rec.retries;
    t.timeouts += rec.timeouts;
    t.failed += rec.failed ? 1 : 0;
  }
  return t;
}

TEST(FaultScenario, SlowDiskEpisodeSlowsTheTarget) {
  const core::ScenarioResult healthy = core::run_scenario(fault_scenario(3));
  core::ScenarioConfig degraded = fault_scenario(3);
  degraded.faults = slow_everywhere(8.0);
  const core::ScenarioResult slow = core::run_scenario(degraded);
  ASSERT_TRUE(healthy.target_finished);
  ASSERT_TRUE(slow.target_finished);
  EXPECT_GT(static_cast<double>(slow.target_completion),
            3.0 * static_cast<double>(healthy.target_completion));
  // Slowness alone never trips the (5 s default) deadline machinery.
  const FaultTotals t = totals(slow.trace);
  EXPECT_EQ(t.retries, 0);
  EXPECT_EQ(t.failed, 0);
}

TEST(FaultScenario, StallDrivesTimeoutsRetriesAndFailures) {
  core::ScenarioConfig cfg = fault_scenario(4);
  // Tighten the retry machine so a 20 s blackout exhausts it quickly.
  cfg.cluster.client.rpc_deadline = 200 * sim::kMillisecond;
  cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
  cfg.cluster.client.rpc_max_retries = 3;
  cfg.faults = stall_everywhere(20 * sim::kSecond);
  cfg.horizon = 60 * sim::kSecond;
  const core::ScenarioResult res = core::run_scenario(cfg);
  const FaultTotals t = totals(res.trace);
  EXPECT_GT(t.timeouts, 0);
  EXPECT_GT(t.retries, 0);
  EXPECT_GT(t.failed, 0);
  // Each failed op burned every retry before giving up.
  EXPECT_GE(t.timeouts, t.failed * 4);
}

TEST(FaultScenario, RpcLossRetriesRecoverAfterTheWindow) {
  core::ScenarioConfig cfg = fault_scenario(11);
  cfg.cluster.client.rpc_deadline = 300 * sim::kMillisecond;
  cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
  cfg.cluster.client.rpc_max_retries = 8;
  FaultPlan plan;
  plan.rpc_loss.push_back({0, 3 * sim::kSecond, 0.4});
  cfg.faults = plan;
  cfg.horizon = 120 * sim::kSecond;
  const core::ScenarioResult res = core::run_scenario(cfg);
  EXPECT_GT(totals(res.trace).retries, 0);
  // Once the loss window closes every retry goes through.
  EXPECT_TRUE(res.target_finished);
}

TEST(FaultScenario, FarFuturePlanLeavesTraceBitIdentical) {
  // A non-empty plan arms the deadline timers, but as long as no episode
  // fires the op stream must be bit-identical to a healthy run: timers are
  // cancelled events, not behaviour.
  const core::ScenarioResult healthy = core::run_scenario(fault_scenario(7));
  core::ScenarioConfig armed = fault_scenario(7);
  FaultPlan plan;
  plan.slow_disks.push_back({0, 4000 * sim::kSecond, sim::kSecond, 8.0});
  armed.faults = plan;
  const core::ScenarioResult res = core::run_scenario(armed);
  EXPECT_EQ(res.target_completion, healthy.target_completion);
  ASSERT_EQ(res.trace.size(), healthy.trace.size());
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    const trace::OpRecord& a = healthy.trace.records()[i];
    const trace::OpRecord& b = res.trace.records()[i];
    EXPECT_EQ(a.start, b.start) << "op " << i;
    EXPECT_EQ(a.end, b.end) << "op " << i;
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_TRUE(std::ranges::equal(healthy.trace.targets(a), res.trace.targets(b)));
    EXPECT_EQ(b.retries, 0);
    EXPECT_EQ(b.timeouts, 0);
    EXPECT_FALSE(b.failed);
  }
}

TEST(FaultScenario, FaultedRunsAreDeterministic) {
  const auto make = [] {
    core::ScenarioConfig cfg = fault_scenario(9);
    cfg.cluster.client.rpc_deadline = 300 * sim::kMillisecond;
    cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
    FaultPlan plan = stall_everywhere(5 * sim::kSecond);
    plan.rpc_loss.push_back({0, 4 * sim::kSecond, 0.3});
    cfg.faults = plan;
    cfg.horizon = 60 * sim::kSecond;
    return cfg;
  };
  const core::ScenarioResult a = core::run_scenario(make());
  const core::ScenarioResult b = core::run_scenario(make());
  EXPECT_EQ(a.target_completion, b.target_completion);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const trace::OpRecord& x = a.trace.records()[i];
    const trace::OpRecord& y = b.trace.records()[i];
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.timeouts, y.timeouts);
    EXPECT_EQ(x.failed, y.failed);
  }
}

TEST(FaultScenario, FaultFeaturesWidenMonitoredWindows) {
  core::ScenarioConfig cfg = fault_scenario(10);
  cfg.monitors = true;
  cfg.cluster.client.rpc_deadline = 300 * sim::kMillisecond;
  cfg.cluster.client.retry_backoff = 50 * sim::kMillisecond;
  cfg.faults = stall_everywhere(8 * sim::kSecond);
  cfg.horizon = 60 * sim::kSecond;
  const core::ScenarioResult res = core::run_scenario(cfg);
  EXPECT_EQ(res.dim, monitor::MetricSchema::kPerServerDimFaults);
  ASSERT_FALSE(res.window_features.empty());
  // The fault block sits right after the 10 client features in every
  // per-server vector; a cluster-wide stall must light it up somewhere.
  double fault_mass = 0.0;
  const int dim = res.dim;
  for (std::size_t i = 0; i < res.window_features.size(); ++i) {
    const double* row = res.window_features.row(i);
    for (int srv = 0; srv < res.n_servers; ++srv) {
      for (int k = 0; k < monitor::MetricSchema::kFaultFeatures; ++k) {
        fault_mass += row[srv * dim + monitor::MetricSchema::kClientFeatures + k];
      }
    }
  }
  EXPECT_GT(fault_mass, 0.0);

  // The healthy twin keeps the historical 37-wide layout.
  core::ScenarioConfig healthy = fault_scenario(10);
  healthy.monitors = true;
  EXPECT_EQ(core::run_scenario(healthy).dim, monitor::MetricSchema::kPerServerDim);
}

}  // namespace
}  // namespace qif::pfs::faults
