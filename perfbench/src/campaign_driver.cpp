#include "campaign_driver.hpp"

#include <exception>

#include "qif/monitor/schema.hpp"
#include "qif/trace/matcher.hpp"
#include "util.hpp"

namespace perfbench {

namespace core = qif::core;
using qif::monitor::MetricSchema;

void add_trace_counts(LayerCounters& c, const qif::trace::TraceLog& trace) {
  for (const qif::trace::OpRecord& rec : trace.records()) {
    ++c.ops;
    c.retries += static_cast<std::uint64_t>(rec.retries);
    c.timeouts += static_cast<std::uint64_t>(rec.timeouts);
    c.failed_ops += rec.failed ? 1 : 0;
  }
}

void LayerCounters::add_scenario(const core::ScenarioResult& run, bool faults) {
  events += run.events_executed;
  add_trace_counts(*this, run.trace);
  // Server block of each per-server vector: 9 raw counters x {sum, mean,
  // std}, after the client block (and the fault block on faulted runs).
  const int base = MetricSchema::kClientFeatures + (faults ? MetricSchema::kFaultFeatures : 0);
  const auto sum_col = [base](int metric) {
    return base + metric * MetricSchema::kAggregatesPerMetric;
  };
  const auto& table = run.window_features;
  if (table.n_servers() == 0) return;
  for (std::size_t r = 0; r < table.size(); ++r) {
    const double* row = table.row(r);
    for (int s = 0; s < table.n_servers(); ++s) {
      const double* v = row + static_cast<std::size_t>(s) * static_cast<std::size_t>(table.dim());
      merges += v[sum_col(4)] + v[sum_col(5)];
      disk_busy_s += v[sum_col(7)];
      queue_wait_s += v[sum_col(8)];
    }
  }
}

TracedCampaignDriver::Baselines TracedCampaignDriver::run_baselines(
    const core::CampaignConfig& config) {
  Baselines baselines;
  for (const std::uint64_t seed : core::campaign_baseline_seeds(config)) {
    // run_campaign_baseline is run_scenario(campaign_baseline_config) with
    // the error captured; calling the two directly exposes the event count.
    ScopedSpan span(rec_, "core.baseline", "sim", "seed-" + std::to_string(seed));
    const double t0 = now_s();
    core::CampaignBaseline baseline;
    try {
      core::ScenarioResult run = core::run_scenario(core::campaign_baseline_config(config, seed));
      counters_.add_scenario(run, false);
      baseline.trace = std::move(run.trace);
    } catch (const std::exception& e) {
      baseline.error = e.what();
    } catch (...) {
      baseline.error = "unknown error";
    }
    const double dt = now_s() - t0;
    task_s_.push_back(dt);
    baselines.emplace(seed, std::make_pair(std::move(baseline), dt));
  }
  return baselines;
}

core::CampaignResult TracedCampaignDriver::run_cases(const core::CampaignConfig& config,
                                                     const Baselines& baselines,
                                                     const std::string& side) {
  std::vector<core::CaseResult> cases;
  cases.reserve(config.cases.size());
  const bool faults = !config.faults.empty();
  for (std::size_t i = 0; i < config.cases.size(); ++i) {
    const core::CaseSpec& cs = config.cases[i];
    const auto& [baseline, baseline_s] = baselines.at(cs.seed);
    const std::string id = side + "/case-" + std::to_string(i);
    ScopedSpan case_span(rec_, "core.case", "core", id);
    const double t0 = now_s();
    core::CaseResult result;
    result.outcome.spec = cs;
    if (!baseline.error.empty()) {
      result.outcome.error = "baseline failed: " + baseline.error;
    } else {
      try {
        core::ScenarioResult run;
        {
          ScopedSpan s(rec_, "core.case_sim", "sim", id);
          run = core::run_scenario(core::campaign_case_config(config, cs));
        }
        counters_.add_scenario(run, faults);
        {
          // join_case_result matches internally; this separate call times
          // the matcher (sorted_for_job re-sorts included) on the same traces.
          ScopedSpan s(rec_, "trace.match", "trace", id);
          qif::trace::MatchStats stats;
          (void)qif::trace::TraceMatcher::match(baseline.trace, run.trace, 0, &stats);
          counters_.matched_ops += stats.matched;
        }
        ScopedSpan s(rec_, "core.join_case_result", "core", id);
        result = core::join_case_result(config, cs, baseline.trace, run);
      } catch (const std::exception& e) {
        result.outcome.error = e.what();
      } catch (...) {
        result.outcome.error = "unknown error";
      }
    }
    const double dt = now_s() - t0;
    task_s_.push_back(dt);
    critical_path_s_ = std::max(critical_path_s_, baseline_s + dt);
    cases.push_back(std::move(result));
  }
  ScopedSpan s(rec_, "core.stitch_case_results", "core", side);
  return core::stitch_case_results(std::move(cases));
}

core::CampaignResult TracedCampaignDriver::run(const core::CampaignConfig& config) {
  const std::string side = config.target_workload + "#" + std::to_string(campaign_seq_++);
  ScopedSpan span(rec_, "core.campaign", "core", side);
  const Baselines baselines = run_baselines(config);
  return run_cases(config, baselines, side);
}

core::MitigationStudy TracedCampaignDriver::run_study(const core::CampaignConfig& config) {
  const std::string side = config.target_workload + "#" + std::to_string(campaign_seq_++);
  ScopedSpan span(rec_, "core.mitigation_study", "core", side);
  const Baselines baselines = run_baselines(config);
  core::CampaignConfig off_config = config;
  off_config.mitigation = qif::ctrl::MitigationConfig{};
  core::MitigationStudy study;
  study.off = run_cases(off_config, baselines, side + "/off");
  study.on = run_cases(config, baselines, side + "/on");
  return study;
}

core::CampaignRunFn TracedCampaignDriver::runner() {
  return [this](const core::CampaignConfig& config) { return run(config); };
}

}  // namespace perfbench
