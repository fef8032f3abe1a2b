// The benchmark's own sequential campaign driver, used by the traced run.
//
// It walks a campaign through the library's public task functions —
// campaign_baseline_config/campaign_case_config + run_scenario,
// join_case_result, stitch_case_results — in the same order as
// core::run_campaign (every baseline seed once, then every case in
// declaration order), so its output is byte-identical to the library's
// sequential driver and to exec::ParallelCampaignRunner.  Around each call
// it opens a span and it sums the per-layer counters the untraced runs
// cannot see (events, op records, monitor columns, match statistics).
//
// Install it with DatasetOptions::runner = driver.runner() for a plain
// campaign, or driver.study_runner(...) for on-vs-off mitigation twins.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qif/core/campaign.hpp"
#include "qif/core/datasets.hpp"
#include "qif/core/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-layer counters summed over every scenario a driver ran.
struct LayerCounters {
  std::uint64_t events = 0;        ///< sim: events executed
  std::uint64_t ops = 0;           ///< pfs: op records (all runs)
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed_ops = 0;
  double disk_busy_s = 0.0;        ///< pfs: busy_ticks sums (case runs' monitor columns)
  double queue_wait_s = 0.0;       ///< pfs: weighted_queue_ticks sums
  double merges = 0.0;             ///< pfs: read + write merges
  std::uint64_t matched_ops = 0;   ///< trace: ops paired by the matcher

  /// Adds one finished scenario's trace and monitor columns.
  void add_scenario(const qif::core::ScenarioResult& run, bool faults);
};

/// Sums the fault-path and op counts of one trace.
void add_trace_counts(LayerCounters& c, const qif::trace::TraceLog& trace);

class TracedCampaignDriver {
 public:
  explicit TracedCampaignDriver(SpanRecorder& rec) : rec_(rec) {}

  /// Runs one campaign (spans + counters); byte-identical to run_campaign.
  qif::core::CampaignResult run(const qif::core::CampaignConfig& config);
  /// On-vs-off twins over shared baselines; identical to run_mitigation_study.
  qif::core::MitigationStudy run_study(const qif::core::CampaignConfig& config);

  /// A DatasetOptions::runner that routes every campaign through run().
  [[nodiscard]] qif::core::CampaignRunFn runner();

  [[nodiscard]] const LayerCounters& counters() const { return counters_; }
  /// Host seconds of each baseline / case scenario (the campaign's tasks).
  [[nodiscard]] const std::vector<double>& task_s() const { return task_s_; }
  /// Longest baseline-plus-case chain seen so far.
  [[nodiscard]] double critical_path_s() const { return critical_path_s_; }

 private:
  using Baselines = std::map<std::uint64_t, std::pair<qif::core::CampaignBaseline, double>>;
  Baselines run_baselines(const qif::core::CampaignConfig& config);
  qif::core::CampaignResult run_cases(const qif::core::CampaignConfig& config,
                                      const Baselines& baselines, const std::string& side);

  SpanRecorder& rec_;
  LayerCounters counters_;
  std::vector<double> task_s_;
  double critical_path_s_ = 0.0;
  int campaign_seq_ = 0;
};

}  // namespace perfbench
