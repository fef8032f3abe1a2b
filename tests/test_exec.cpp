// Tests for the qif::exec subsystem and the campaign task graph it runs
// on: the fixed-size thread pool, and core::run_campaigns' guarantee that
// every campaign list, mitigation study and dataset runner hook produces
// the same bytes at every job count.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qif/core/campaign.hpp"
#include "qif/core/datasets.hpp"
#include "qif/core/scenario.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/exec/thread_pool.hpp"
#include "qif/workloads/registry.hpp"

namespace qif {
namespace {

TEST(ThreadPool, ClampsWorkerCountToAtLeastOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  exec::ThreadPool pool4(4);
  EXPECT_EQ(pool4.size(), 4);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each_index(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexRethrowsLowestIndexError) {
  exec::ThreadPool pool(4);
  // Indices 5 and 11 throw; the lowest one must win deterministically.
  try {
    pool.for_each_index(16, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("error at 11");
      if (i == 5) throw std::runtime_error("error at 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "error at 5");
  }
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 32);
}

core::CampaignConfig small_campaign(std::uint64_t cluster_seed) {
  core::CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 2;
  cc.target_scale = 0.5;
  cc.cluster = core::testbed_cluster_config(cluster_seed);
  cc.cases.push_back({"", 0, 1.0, 1});
  cc.cases.push_back({"ior-easy-read", 12, 1.0, 2});
  cc.cases.push_back({"mdt-easy-write", 6, 1.0, 1});  // shares seed 1's baseline
  cc.cases.push_back({"", 0, 1.0, 2});                // shares seed 2's baseline
  return cc;
}

void expect_identical(const core::CampaignResult& a, const core::CampaignResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const core::CaseOutcome& oa = a.outcomes[i];
    const core::CaseOutcome& ob = b.outcomes[i];
    EXPECT_EQ(oa.spec.interference_workload, ob.spec.interference_workload);
    EXPECT_EQ(oa.spec.seed, ob.spec.seed);
    EXPECT_EQ(oa.matched_ops, ob.matched_ops);
    EXPECT_EQ(oa.windows, ob.windows);
    EXPECT_EQ(oa.sampled_windows, ob.sampled_windows);
    EXPECT_EQ(oa.mean_degradation, ob.mean_degradation);  // bit-identical
    EXPECT_EQ(oa.target_finished, ob.target_finished);
    EXPECT_EQ(oa.error, ob.error);
  }
  EXPECT_EQ(a.dataset.n_servers(), b.dataset.n_servers());
  EXPECT_EQ(a.dataset.dim(), b.dataset.dim());
  ASSERT_EQ(a.dataset.size(), b.dataset.size());
  for (std::size_t i = 0; i < a.dataset.size(); ++i) {
    EXPECT_EQ(a.dataset.window_index(i), b.dataset.window_index(i));
    EXPECT_EQ(a.dataset.label(i), b.dataset.label(i));
    EXPECT_EQ(a.dataset.degradation(i), b.dataset.degradation(i));
    for (std::size_t j = 0; j < a.dataset.width(); ++j) {
      EXPECT_EQ(a.dataset.row(i)[j], b.dataset.row(i)[j])
          << "sample " << i << " feature " << j;
    }
  }
}

/// One campaign on `jobs` workers through the graph.
core::CampaignResult run_on_graph(const core::CampaignConfig& cc, int jobs) {
  return std::move(core::run_campaigns(std::span(&cc, 1), jobs).front());
}

TEST(ParallelCampaignRunner, BitIdenticalToSequentialAtAnyJobCount) {
  const core::CampaignConfig cc = small_campaign(21);
  const core::CampaignResult sequential = core::run_campaign(cc);
  const core::CampaignResult one_job = run_on_graph(cc, 1);
  const core::CampaignResult four_jobs = run_on_graph(cc, 4);
  ASSERT_FALSE(sequential.dataset.empty());
  expect_identical(sequential, one_job);
  expect_identical(sequential, four_jobs);
}

TEST(ParallelCampaignRunner, ThrowingCaseIsReportedPerCaseNotFatal) {
  core::CampaignConfig cc = small_campaign(22);
  // An unknown interference workload makes run_scenario throw for exactly
  // this case; the campaign must still complete every other case.
  cc.cases[1].interference_workload = "no-such-workload";
  const core::CampaignResult result = run_on_graph(cc, 4);
  ASSERT_EQ(result.outcomes.size(), 4u);
  EXPECT_FALSE(result.outcomes[1].ok());
  EXPECT_NE(result.outcomes[1].error.find("no-such-workload"), std::string::npos);
  EXPECT_EQ(result.outcomes[1].windows, 0u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_TRUE(result.outcomes[i].ok()) << "case " << i;
    EXPECT_GT(result.outcomes[i].windows, 0u) << "case " << i;
  }
  EXPECT_FALSE(result.dataset.empty());

  // The one-job graph reports the same failure the same way.
  const core::CampaignResult sequential = core::run_campaign(cc);
  expect_identical(sequential, result);
}

TEST(ParallelCampaignRunner, FailedBaselinePoisonsOnlyItsCases) {
  core::CampaignConfig cc = small_campaign(23);
  cc.target_workload = "no-such-target";
  const core::CampaignResult result = run_on_graph(cc, 2);
  ASSERT_EQ(result.outcomes.size(), 4u);
  for (const auto& o : result.outcomes) {
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error.find("baseline failed"), std::string::npos);
  }
  EXPECT_TRUE(result.dataset.empty());
}

TEST(ParallelCampaignRunner, CampaignRunnerHookDispatchesByJobs) {
  const core::CampaignConfig cc = small_campaign(24);
  const core::CampaignRunFn seq = exec::campaign_runner(1);
  const core::CampaignRunFn par = exec::campaign_runner(3);
  // Both are the graph runner the dataset builders recognise.
  ASSERT_NE(seq.target<core::CampaignPool>(), nullptr);
  ASSERT_NE(par.target<core::CampaignPool>(), nullptr);
  EXPECT_EQ(seq.target<core::CampaignPool>()->jobs, 1);
  EXPECT_EQ(par.target<core::CampaignPool>()->jobs, 3);
  expect_identical(seq(cc), par(cc));
}

/// Three campaigns with different targets, seeds and one mitigated, so the
/// graph interleaves baselines and cases of unlike lengths.
std::vector<core::CampaignConfig> three_campaigns() {
  std::vector<core::CampaignConfig> list = {small_campaign(31), small_campaign(32),
                                            small_campaign(33)};
  list[1].target_workload = "mdt-hard-write";
  list[1].target_scale = 0.3;
  list[2].target_workload = "ior-easy-read";
  list[2].mitigation = ctrl::parse_mitigation("token");
  return list;
}

TEST(CampaignGraph, ListIsByteIdenticalToPerCampaignRunsAtAnyJobCount) {
  const std::vector<core::CampaignConfig> list = three_campaigns();
  std::vector<core::CampaignResult> separate;
  for (const core::CampaignConfig& cc : list) separate.push_back(core::run_campaign(cc));
  for (const int jobs : {1, 2, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    const std::vector<core::CampaignResult> graph = core::run_campaigns(list, jobs);
    ASSERT_EQ(graph.size(), list.size());
    for (std::size_t c = 0; c < list.size(); ++c) {
      ASSERT_FALSE(separate[c].dataset.empty()) << "campaign " << c;
      expect_identical(separate[c], graph[c]);
    }
  }
}

TEST(CampaignGraph, FailedBaselinePoisonsOnlyThatCampaignsCases) {
  std::vector<core::CampaignConfig> list = three_campaigns();
  list[1].target_workload = "no-such-target";
  const std::vector<core::CampaignResult> graph = core::run_campaigns(list, 4);
  ASSERT_EQ(graph.size(), 3u);
  for (const core::CaseOutcome& o : graph[1].outcomes) {
    EXPECT_FALSE(o.ok());
    EXPECT_NE(o.error.find("baseline failed"), std::string::npos);
  }
  EXPECT_TRUE(graph[1].dataset.empty());
  for (const std::size_t c : {std::size_t{0}, std::size_t{2}}) {
    for (const core::CaseOutcome& o : graph[c].outcomes) EXPECT_TRUE(o.ok()) << o.error;
    expect_identical(core::run_campaign(list[c]), graph[c]);
  }
}

TEST(CampaignGraph, OrderedSinkSeesCasesInDeclarationOrder) {
  const std::vector<core::CampaignConfig> list = three_campaigns();
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  std::vector<std::size_t> rows;
  const std::vector<core::CampaignResult> graph = core::run_campaigns(
      list, 4, [&](std::size_t campaign, std::size_t index, const core::CaseResult& cr) {
        seen.emplace_back(campaign, index);
        rows.push_back(cr.shard.size());
      });
  std::size_t expected = 0;
  for (const core::CampaignConfig& cc : list) expected += cc.cases.size();
  ASSERT_EQ(seen.size(), expected);
  std::size_t k = 0;
  for (std::size_t c = 0; c < list.size(); ++c) {
    for (std::size_t i = 0; i < list[c].cases.size(); ++i, ++k) {
      EXPECT_EQ(seen[k], std::make_pair(c, i)) << "sink call " << k;
      EXPECT_EQ(rows[k], graph[c].outcomes[i].sampled_windows) << "sink call " << k;
    }
  }
}

TEST(CampaignGraph, CampaignSinkFollowsEachCampaignsLastCase) {
  // Each campaign is reported, stitched, right after the case sink has seen
  // its last case and before the next campaign's first case, so a
  // campaign's report never waits for the later campaigns.
  const std::vector<core::CampaignConfig> list = three_campaigns();
  std::vector<std::string> events;
  std::vector<std::size_t> reported_rows;
  const std::vector<core::CampaignResult> graph = core::run_campaigns(
      list, 4,
      [&](std::size_t campaign, std::size_t index, const core::CaseResult&) {
        events.push_back("case " + std::to_string(campaign) + "." + std::to_string(index));
      },
      [&](std::size_t campaign, const core::CampaignResult& result) {
        events.push_back("campaign " + std::to_string(campaign));
        reported_rows.push_back(result.dataset.size());
      });
  std::vector<std::string> expected;
  for (std::size_t c = 0; c < list.size(); ++c) {
    for (std::size_t i = 0; i < list[c].cases.size(); ++i) {
      expected.push_back("case " + std::to_string(c) + "." + std::to_string(i));
    }
    expected.push_back("campaign " + std::to_string(c));
  }
  EXPECT_EQ(events, expected);
  ASSERT_EQ(reported_rows.size(), graph.size());
  for (std::size_t c = 0; c < graph.size(); ++c) {
    EXPECT_EQ(reported_rows[c], graph[c].dataset.size()) << "campaign " << c;
  }
}

TEST(CampaignGraph, ThrowingSinkStopsTheGraphAndIsRethrown) {
  const std::vector<core::CampaignConfig> list = three_campaigns();
  for (const int jobs : {1, 4}) {
    int calls = 0;
    EXPECT_THROW((void)core::run_campaigns(list, jobs,
                                           [&](std::size_t, std::size_t, const core::CaseResult&) {
                                             ++calls;
                                             throw std::runtime_error("sink full");
                                           }),
                 std::runtime_error);
    EXPECT_EQ(calls, 1) << "jobs " << jobs;

    int reports = 0;
    EXPECT_THROW((void)core::run_campaigns(list, jobs, {},
                                           [&](std::size_t, const core::CampaignResult&) {
                                             ++reports;
                                             throw std::runtime_error("report failed");
                                           }),
                 std::runtime_error);
    EXPECT_EQ(reports, 1) << "jobs " << jobs;
  }
}

TEST(CampaignGraph, NonPoolRunnerIsCalledPerCampaignInTargetOrder) {
  // A plan-capturing hook: it must see each config as it is built (its
  // call and the matching on_result come before the next config's call),
  // in target order, exactly once per campaign.
  std::vector<std::string> events;
  core::DatasetOptions opts;
  opts.runner = [&events](const core::CampaignConfig& cc) {
    events.push_back("run " + cc.target_workload);
    return core::CampaignResult{};
  };
  opts.on_result = [&events](const std::string& target, const core::CampaignResult&) {
    events.push_back("result " + target);
  };
  (void)core::build_io500_dataset(opts);
  std::vector<std::string> expected;
  for (const std::string& target : workloads::io500_tasks()) {
    expected.push_back("run " + target);
    expected.push_back("result " + target);
  }
  EXPECT_EQ(events, expected);
}

TEST(CampaignGraph, MitigationStudyEqualsSeparateOffAndOnPasses) {
  core::CampaignConfig on = small_campaign(34);
  on.mitigation = ctrl::parse_mitigation("token");
  core::CampaignConfig off = on;
  off.mitigation = ctrl::MitigationConfig{};
  const core::MitigationStudy study = core::run_mitigation_study(on);
  expect_identical(core::run_campaign(off), study.off);
  expect_identical(core::run_campaign(on), study.on);
}

}  // namespace
}  // namespace qif
