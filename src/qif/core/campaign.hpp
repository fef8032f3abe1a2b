// Training-data campaigns (paper §III-D).
//
// "We collect high-quality labelled data by executing an application in the
// presence and absence of additional I/O workloads running on other
// computing nodes."  A campaign runs the target workload once per seed as a
// baseline, then once per interference case; matches the two traces op by
// op; computes per-window degradation labels; and joins them with the
// interference run's monitor features into a labelled dataset.
//
// The work decomposes into pure per-task functions (baseline runs and case
// runs) with no shared mutable state: every scenario owns its own
// sim::Simulation and derived RNG seed.  The free functions below are that
// task surface.  One scheduler drives them: run_campaigns() turns a list of
// campaigns into a task graph (every unique baseline and every case is a
// node, each case depending on its baseline) and runs it on a pool of
// `jobs` workers, the calling thread being one of them.  run_campaign(),
// run_mitigation_study() and Campaign::run() are that graph at one job;
// the output is bit-identical at every job count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/monitor/features.hpp"
#include "qif/trace/labeler.hpp"

namespace qif::core {

/// One interference case: which background workload, how many concurrent
/// instances ("levels of interference"), and the seed that varies both the
/// target run and the background phase alignment.
struct CaseSpec {
  std::string interference_workload;  ///< empty = quiet case (negatives)
  int instances = 3;
  double intensity_scale = 1.0;
  std::uint64_t seed = 1;
};

struct CampaignConfig {
  std::string target_workload;
  int target_nodes = 2;            ///< leading nodes host the target...
  int target_procs_per_node = 2;
  double target_scale = 1.0;
  std::vector<CaseSpec> cases;     ///< ...remaining nodes host interference
  pfs::ClusterConfig cluster;      ///< topology template (seed overridden per run)
  sim::SimDuration window = sim::kSecond;
  sim::SimDuration horizon = 240 * sim::kSecond;
  std::vector<double> bin_thresholds = {2.0};  ///< {2} binary, {2,5} 3-class
  std::size_t min_ops_per_window = 1;
  /// Fault-injection schedule applied to every *case* run (the monitored,
  /// possibly-degraded executions).  Baseline runs always stay healthy: the
  /// label denominator is "this workload on an undisturbed cluster", so a
  /// degraded-OST case is measured against the same healthy yardstick as a
  /// contended one.  Empty = the historical healthy campaign, bit-identical
  /// to pre-fault builds.
  pfs::faults::FaultPlan faults;
  /// Mitigation policy armed on every *case* run (the fault-plan pattern:
  /// baselines stay untouched, so labels keep the same healthy yardstick).
  /// Empty = the historical unmitigated campaign, byte-identical to
  /// pre-mitigation builds.
  ctrl::MitigationConfig mitigation;
};

struct CaseOutcome {
  CaseSpec spec;
  std::size_t matched_ops = 0;
  std::size_t windows = 0;          ///< labelled windows
  std::size_t sampled_windows = 0;  ///< labelled windows that also had features
  /// Mean Level_degrade over the sampled windows (the windows that became
  /// dataset samples), 1.0 when no window was sampled.
  double mean_degradation = 0.0;
  /// p99 of the target job's op latencies in this case run (ms; computed
  /// for every case, mitigated or not, so on-vs-off twins compare directly).
  double victim_p99_ms = 0.0;
  // -- mitigation telemetry (zero when the case ran unmitigated) -----------
  std::int64_t throttle_waits = 0;
  std::int64_t throttled_bytes = 0;
  double throttle_delay_s = 0.0;
  double mean_admission_level = 0.0;
  bool target_finished = false;
  std::string error;                ///< non-empty when this case failed
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// One case's contribution: its bookkeeping plus its dataset shard.
struct CaseResult {
  CaseOutcome outcome;
  monitor::Dataset shard;
};

/// A whole campaign's output with the outcomes in case-declaration order.
struct CampaignResult {
  monitor::Dataset dataset;
  std::vector<CaseOutcome> outcomes;
};

/// A baseline run's detached trace, or the error that prevented it.
struct CampaignBaseline {
  trace::TraceLog trace;
  std::string error;  ///< non-empty when the baseline scenario failed
};

/// Scenario config for the quiet baseline run of one target seed.
[[nodiscard]] ScenarioConfig campaign_baseline_config(const CampaignConfig& config,
                                                      std::uint64_t seed);

/// Scenario config for one interference case.
[[nodiscard]] ScenarioConfig campaign_case_config(const CampaignConfig& config,
                                                  const CaseSpec& cs);

/// Distinct baseline seeds referenced by the campaign's cases, in
/// first-appearance order.
[[nodiscard]] std::vector<std::uint64_t> campaign_baseline_seeds(
    const CampaignConfig& config);

/// Runs one baseline scenario; a throwing scenario is reported in `error`
/// instead of propagating.  Thread-safe: touches no shared state.
[[nodiscard]] CampaignBaseline run_campaign_baseline(const CampaignConfig& config,
                                                     std::uint64_t seed);

/// Matches an already-run case scenario against its baseline trace, labels
/// the windows and joins them with the captured features.  Pure; exposed
/// separately so the degradation accounting is unit-testable.
[[nodiscard]] CaseResult join_case_result(const CampaignConfig& config,
                                          const CaseSpec& cs,
                                          const trace::TraceLog& base_trace,
                                          const ScenarioResult& run);

/// Runs one case end to end against a precomputed baseline.  A throwing
/// scenario (or a failed baseline) is reported per-case via
/// CaseOutcome::error instead of aborting the campaign.  Thread-safe.
[[nodiscard]] CaseResult run_campaign_case(const CampaignConfig& config,
                                           const CaseSpec& cs,
                                           const CampaignBaseline& baseline);

/// Assembles per-case results (in declaration order) into one campaign
/// result: outcomes in order, successful shards block-appended into a
/// reserve-once dataset (O(shards) heap allocations regardless of window
/// count).  run_campaigns() stitches each campaign with it.
[[nodiscard]] CampaignResult stitch_case_results(std::vector<CaseResult> cases);

/// Ordered streaming hook for run_campaigns(): invoked once per case, in
/// (campaign, case) declaration order, as soon as that case AND every
/// earlier one have finished (so a long campaign's results can hit disk
/// incrementally instead of accumulating until the end).  Calls are
/// serialized — at most one runs at a time — but they may execute on pool
/// workers, concurrently with later cases still simulating; the sink must
/// not touch campaign state beyond the result it is handed.  One worker at
/// a time drains the finished prefix into the sinks; the others hand their
/// finished case over and go on dispatching.  If a sink throws, no sink is
/// called again, no further task starts, and run_campaigns() rethrows once
/// the running ones have finished.
using CaseSink =
    std::function<void(std::size_t campaign, std::size_t index, const CaseResult&)>;

/// Ordered per-campaign hook for run_campaigns(): invoked once per campaign,
/// in declaration order, with its stitched result, right after its last
/// case has been handed to the CaseSink.  Same rules as CaseSink.
using CampaignSink = std::function<void(std::size_t campaign, const CampaignResult&)>;

/// Runs every campaign of `configs` as one task graph on `jobs` workers
/// (values < 1 are clamped to 1; 1 runs inline on the calling thread) and
/// returns one result per campaign, in order.  A case is dispatched as soon
/// as its baseline finishes, ahead of baselines not yet started; ready
/// cases go in declaration order, and baselines in first-appearance order.
/// A baseline's trace is freed once its last case is joined.  Failed
/// baselines and cases are reported per case via CaseOutcome::error, never
/// thrown.
[[nodiscard]] std::vector<CampaignResult> run_campaigns(std::span<const CampaignConfig> configs,
                                                        int jobs, const CaseSink& sink = {},
                                                        const CampaignSink& on_campaign = {});

/// One campaign on one job: the graph above, inline.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

/// On-vs-off mitigation twins over the same seeds.
struct MitigationStudy {
  CampaignResult off;  ///< config with the policy cleared
  CampaignResult on;   ///< config as given (mitigation armed on case runs)
};

/// Runs the campaign twice — once with mitigation stripped, once with
/// `config.mitigation` armed — as one graph on one job in which each
/// baseline has an off and an on child per case, so the two sides differ in
/// nothing but the controllers.  Throws std::invalid_argument when config.mitigation is
/// empty (there would be no "on" side).
[[nodiscard]] MitigationStudy run_mitigation_study(const CampaignConfig& config);

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  /// Runs the campaign on one job (run_campaign) and returns the labelled
  /// dataset; the outcomes are kept for outcomes().
  [[nodiscard]] monitor::Dataset run();

  [[nodiscard]] const std::vector<CaseOutcome>& outcomes() const { return outcomes_; }
  [[nodiscard]] const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
  std::vector<CaseOutcome> outcomes_;
};

}  // namespace qif::core
