// Golden determinism tests for fault-injected campaigns.
//
// Three contracts, in order of importance:
//  1. An *empty* fault plan leaves the campaign byte-identical to the
//     pre-fault-injection golden CSV committed under tests/data/, at any
//     job count — adding the fault layer must not move a single healthy
//     byte.
//  2. A *non-empty* plan is deterministic: the same seed + plan produce a
//     byte-identical CSV sequentially and on 4 workers.
//  3. A degraded-OST campaign measures visibly worse degradation than its
//     healthy twin, because baselines always stay healthy.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "qif/core/campaign.hpp"
#include "qif/exec/parallel_runner.hpp"
#include "qif/monitor/export.hpp"
#include "qif/pfs/faults.hpp"

namespace qif::core {
namespace {

/// The exact campaign the committed golden was generated from (on the
/// pre-fault-layer tree).  Touch nothing here without regenerating
/// tests/data/campaign_prepr_golden.csv.
CampaignConfig golden_config() {
  CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 2;
  cc.target_procs_per_node = 2;
  cc.target_scale = 1.0;
  cc.cluster = testbed_cluster_config(31);
  cc.horizon = 120 * sim::kSecond;
  cc.cases = {{"", 0, 1.0, 7},
              {"ior-easy-read", 3, 1.0, 7},
              {"ior-easy-read", 6, 1.0, 9},
              {"mdt-hard-write", 3, 1.0, 8}};
  return cc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string campaign_csv(const CampaignResult& result) {
  std::ostringstream os;
  monitor::write_dataset_csv(os, result.dataset);
  return os.str();
}

TEST(CampaignFaults, EmptyPlanMatchesPreFaultGoldenByteExact) {
  const std::string golden =
      read_file(std::string(QIF_TEST_DATA_DIR) + "/campaign_prepr_golden.csv");
  ASSERT_GT(golden.size(), 1000u);

  const CampaignConfig cc = golden_config();
  ASSERT_TRUE(cc.faults.empty());
  const std::string sequential = campaign_csv(run_campaign(cc));
  EXPECT_EQ(sequential, golden)
      << "healthy campaign output drifted from the pre-fault-layer golden";

  const CampaignRunFn runner = exec::campaign_runner(4);
  EXPECT_EQ(campaign_csv(runner(cc)), golden)
      << "parallel (4-worker) healthy campaign drifted from the golden";
}

TEST(CampaignFaults, FaultedCampaignIsByteIdenticalAcrossJobCounts) {
  CampaignConfig cc = golden_config();
  cc.faults = pfs::faults::parse_fault_plan(
      "slow:ost=0,start=2,dur=40,factor=6;stall:ost=1,start=10,dur=8");
  const CampaignResult sequential = run_campaign(cc);
  EXPECT_EQ(sequential.dataset.dim(), monitor::MetricSchema::kPerServerDimFaults);
  ASSERT_FALSE(sequential.dataset.empty());

  const CampaignRunFn runner = exec::campaign_runner(4);
  const std::string seq_csv = campaign_csv(sequential);
  EXPECT_EQ(seq_csv, campaign_csv(runner(cc)));

  // And the faults actually changed the data.
  const std::string golden =
      read_file(std::string(QIF_TEST_DATA_DIR) + "/campaign_prepr_golden.csv");
  EXPECT_NE(seq_csv, golden);
}

TEST(CampaignFaults, FaultedMitigatedCampaignIsByteIdenticalAcrossJobCounts) {
  // Faults and mitigation stacked: the controllers react to fault-driven
  // latency through the same deterministic signal path, so the combined
  // campaign must still not depend on the worker partition.
  CampaignConfig cc = golden_config();
  cc.faults = pfs::faults::parse_fault_plan(
      "slow:ost=0,start=2,dur=40,factor=6;stall:ost=1,start=10,dur=8");
  cc.mitigation = ctrl::parse_mitigation("token");
  const CampaignResult sequential = run_campaign(cc);
  ASSERT_FALSE(sequential.dataset.empty());
  const CampaignRunFn runner = exec::campaign_runner(4);
  EXPECT_EQ(campaign_csv(sequential), campaign_csv(runner(cc)));
}

TEST(CampaignFaults, DegradedOstCampaignShowsHigherDegradationThanHealthyTwin) {
  CampaignConfig cc;
  cc.target_workload = "ior-easy-write";
  cc.target_nodes = 1;
  cc.target_procs_per_node = 2;
  cc.target_scale = 1.0;
  cc.cluster = testbed_cluster_config(13);
  cc.horizon = 120 * sim::kSecond;
  cc.cases = {{"", 0, 1.0, 3}};  // quiet case: any degradation is the fault's

  Campaign healthy(cc);
  (void)healthy.run();
  ASSERT_EQ(healthy.outcomes().size(), 1u);
  ASSERT_TRUE(healthy.outcomes()[0].ok());
  const double healthy_mean = healthy.outcomes()[0].mean_degradation;

  CampaignConfig degraded_cc = cc;
  for (pfs::OstId ost = 0; ost < 6; ++ost) {
    degraded_cc.faults.slow_disks.push_back({ost, 0, 120 * sim::kSecond, 8.0});
  }
  Campaign degraded(degraded_cc);
  (void)degraded.run();
  ASSERT_EQ(degraded.outcomes().size(), 1u);
  ASSERT_TRUE(degraded.outcomes()[0].ok());
  const double degraded_mean = degraded.outcomes()[0].mean_degradation;

  // The healthy quiet case sits near 1.0; the slow-disk twin, measured
  // against the same healthy baseline, must be visibly degraded.
  EXPECT_LT(healthy_mean, 1.5);
  EXPECT_GT(degraded_mean, 2.0);
  EXPECT_GT(degraded_mean, healthy_mean + 1.0);
}

}  // namespace
}  // namespace qif::core
