#include "qif/core/campaign.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <utility>

#include "qif/exec/thread_pool.hpp"
#include "qif/trace/matcher.hpp"

namespace qif::core {
namespace {

workloads::JobSpec target_spec(const CampaignConfig& config, std::uint64_t seed) {
  workloads::JobSpec spec;
  spec.workload = config.target_workload;
  for (int n = 0; n < config.target_nodes; ++n) spec.nodes.push_back(n);
  spec.procs_per_node = config.target_procs_per_node;
  spec.job = 0;
  spec.seed = seed;
  spec.scale = config.target_scale;
  return spec;
}

std::vector<pfs::NodeId> interference_nodes(const CampaignConfig& config) {
  std::vector<pfs::NodeId> nodes;
  for (int n = config.target_nodes; n < config.cluster.n_client_nodes; ++n) {
    nodes.push_back(n);
  }
  return nodes;
}

}  // namespace

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

ScenarioConfig campaign_baseline_config(const CampaignConfig& config,
                                        std::uint64_t seed) {
  ScenarioConfig base;
  base.cluster = config.cluster;
  base.cluster.seed =
      sim::Rng::derive_seed(config.cluster.seed, "base" + std::to_string(seed));
  base.target = target_spec(config, seed);
  base.window = config.window;
  base.horizon = config.horizon;
  base.monitors = false;  // baseline only needs the trace
  return base;
}

ScenarioConfig campaign_case_config(const CampaignConfig& config, const CaseSpec& cs) {
  ScenarioConfig sc;
  sc.cluster = config.cluster;
  sc.cluster.seed = sim::Rng::derive_seed(
      config.cluster.seed, "case" + std::to_string(cs.seed) + cs.interference_workload);
  sc.target = target_spec(config, cs.seed);
  sc.window = config.window;
  sc.horizon = config.horizon;
  sc.monitors = true;
  sc.faults = config.faults;  // cases run degraded; baselines stay healthy
  sc.mitigation = config.mitigation;  // likewise: controllers gate cases only
  if (!cs.interference_workload.empty()) {
    InterferenceSpec spec;
    spec.workload = cs.interference_workload;
    spec.nodes = interference_nodes(config);
    spec.instances = cs.instances;
    spec.scale = cs.intensity_scale;
    spec.seed = sim::Rng::derive_seed(cs.seed, "noise" + cs.interference_workload);
    sc.interference = spec;
  }
  return sc;
}

std::vector<std::uint64_t> campaign_baseline_seeds(const CampaignConfig& config) {
  std::vector<std::uint64_t> seeds;
  for (const CaseSpec& cs : config.cases) {
    bool seen = false;
    for (const std::uint64_t s : seeds) seen = seen || s == cs.seed;
    if (!seen) seeds.push_back(cs.seed);
  }
  return seeds;
}

CampaignBaseline run_campaign_baseline(const CampaignConfig& config,
                                       std::uint64_t seed) {
  CampaignBaseline baseline;
  try {
    baseline.trace = run_scenario(campaign_baseline_config(config, seed)).trace;
  } catch (const std::exception& e) {
    baseline.error = e.what();
  } catch (...) {
    baseline.error = "unknown error";
  }
  return baseline;
}

CaseResult join_case_result(const CampaignConfig& config, const CaseSpec& cs,
                            const trace::TraceLog& base_trace,
                            const ScenarioResult& run) {
  trace::LabelerConfig lbl_cfg;
  lbl_cfg.window = config.window;
  lbl_cfg.bin_thresholds = config.bin_thresholds;
  lbl_cfg.min_ops_per_window = config.min_ops_per_window;
  const trace::Labeler labeler(lbl_cfg);

  trace::MatchStats mstats;
  const auto matched = trace::TraceMatcher::match(base_trace, run.trace, /*job=*/0, &mstats);
  const auto labels = labeler.label(matched);

  CaseResult result;
  result.outcome.spec = cs;
  result.outcome.matched_ops = mstats.matched;
  result.outcome.windows = labels.size();
  result.outcome.target_finished = run.target_finished;
  result.outcome.victim_p99_ms = ctrl::Mitigator::victim_p99_ms(run.trace);
  result.outcome.throttle_waits = run.ctrl.throttle_waits;
  result.outcome.throttled_bytes = run.ctrl.throttled_bytes;
  result.outcome.throttle_delay_s = run.ctrl.throttle_delay_s;
  result.outcome.mean_admission_level = run.ctrl.mean_admission_level;

  if (run.n_servers > 0) {
    result.shard.set_shape(run.n_servers, run.dim);
    result.shard.reserve(labels.size());
  }
  double deg_sum = 0.0;
  for (const trace::WindowLabel& lbl : labels) {
    // The scenario emits windows in ascending order, so the lookup is a
    // binary search over the window_index column.
    const std::size_t pos = run.window_features.find_window_sorted(lbl.window_index);
    if (pos == monitor::FeatureTable::npos) continue;  // no features captured
    result.shard.append_row(lbl.window_index, lbl.label, lbl.degradation,
                            run.window_features.row(pos));
    deg_sum += lbl.degradation;
  }
  // Average only over the windows actually summed: dividing by
  // labels.size() while skipping feature-less windows biased the headline
  // degradation number low.  labels.size() is still reported as `windows`.
  result.outcome.sampled_windows = result.shard.size();
  result.outcome.mean_degradation =
      result.shard.empty() ? 1.0
                           : deg_sum / static_cast<double>(result.shard.size());
  return result;
}

CaseResult run_campaign_case(const CampaignConfig& config, const CaseSpec& cs,
                             const CampaignBaseline& baseline) {
  CaseResult result;
  result.outcome.spec = cs;
  if (!baseline.error.empty()) {
    result.outcome.error = "baseline failed: " + baseline.error;
    return result;
  }
  try {
    const ScenarioResult run = run_scenario(campaign_case_config(config, cs));
    return join_case_result(config, cs, baseline.trace, run);
  } catch (const std::exception& e) {
    result.outcome.error = e.what();
  } catch (...) {
    result.outcome.error = "unknown error";
  }
  return result;
}

CampaignResult stitch_case_results(std::vector<CaseResult> cases) {
  CampaignResult result;
  // Reserve-once block assembly: size the table from the shards, adopt the
  // first successful shard's shape, then append each shard as one block
  // copy.  The whole stitch is O(shards) heap allocations, independent of
  // how many windows the campaign produced.
  std::size_t total_rows = 0;
  for (const CaseResult& cr : cases) {
    if (!cr.outcome.ok()) continue;
    total_rows += cr.shard.size();
    if (result.dataset.n_servers() == 0 && cr.shard.n_servers() != 0) {
      result.dataset.set_shape(cr.shard.n_servers(), cr.shard.dim());
    }
  }
  result.dataset.reserve(total_rows);
  result.outcomes.reserve(cases.size());
  for (CaseResult& cr : cases) {
    if (cr.outcome.ok()) result.dataset.append(cr.shard);
    result.outcomes.push_back(std::move(cr.outcome));
  }
  return result;
}

namespace {

/// The campaign task graph.  Nodes are every unique baseline — one per
/// (baseline family, seed) — and every case; a case depends on its
/// baseline.  Campaigns in the same family share baselines (the mitigation
/// study's off and on sides); every other campaign is its own family.
///
/// Dispatch: a worker takes the lowest-declared ready case if there is one,
/// else the next baseline not yet started, else waits for a running
/// baseline to release its cases.  Every task is a pure function of its
/// inputs, so the stitched output does not depend on the dispatch order or
/// the worker count; the order only decides how well the workers are kept
/// busy and how long each baseline trace stays alive.
class CampaignGraph {
 public:
  /// `family[c]` names campaign c's baseline family.
  CampaignGraph(std::vector<const CampaignConfig*> campaigns,
                const std::vector<std::size_t>& family, const CaseSink& sink,
                const CampaignSink& on_campaign)
      : campaigns_(std::move(campaigns)), sink_(sink), on_campaign_(on_campaign) {
    std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> baseline_of;
    for (std::size_t c = 0; c < campaigns_.size(); ++c) {
      const CampaignConfig& config = *campaigns_[c];
      case_offset_.push_back(cases_.size());
      for (std::size_t i = 0; i < config.cases.size(); ++i) {
        const auto key = std::make_pair(family[c], config.cases[i].seed);
        auto it = baseline_of.find(key);
        if (it == baseline_of.end()) {
          it = baseline_of.emplace(key, baselines_.size()).first;
          baselines_.push_back(Baseline{&config, key.second, {}, {}, 0});
        }
        baselines_[it->second].cases.push_back(cases_.size());
        cases_.push_back(Case{c, i, it->second});
      }
    }
    case_offset_.push_back(cases_.size());
    for (Baseline& b : baselines_) b.open_cases = b.cases.size();
    results_.resize(cases_.size());
    done_.assign(cases_.size(), 0);
    stitched_.resize(campaigns_.size());
  }

  /// Runs every node on `jobs` workers and returns one result per campaign.
  std::vector<CampaignResult> run(int jobs) {
    // More workers than cases would only wait.
    const int workers = static_cast<int>(
        std::min<std::size_t>(std::max(jobs, 1), std::max<std::size_t>(cases_.size(), 1)));
    if (workers == 1) {
      work();
    } else {
      // The calling thread is one of the workers.
      exec::ThreadPool pool(workers - 1);
      for (int w = 1; w < workers; ++w) pool.submit([this] { work(); });
      work();
      pool.wait_idle();
    }
    if (failure_) std::rethrow_exception(failure_);
    // Every case has been drained; this only reaches campaigns without
    // cases when no case ran at all.
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    drain(lock);
    return std::move(stitched_);
  }

 private:
  struct Baseline {
    const CampaignConfig* config;
    std::uint64_t seed;
    CampaignBaseline result;
    std::vector<std::size_t> cases;  ///< dependent case ids, ascending
    std::size_t open_cases = 0;      ///< dependents not yet joined
  };
  struct Case {
    std::size_t campaign;
    std::size_t index;     ///< position in the campaign's case list
    std::size_t baseline;
  };

  /// One worker: takes nodes until every baseline has finished and no
  /// case is left ready, or until a task has thrown (only a sink or an
  /// allocation can: scenario errors are captured per case).
  void work() {
    for (;;) {
      std::size_t node = 0;
      bool is_case = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_cv_.wait(lock, [this] {
          return failure_ || !ready_.empty() || next_baseline_ < baselines_.size() ||
                 finished_baselines_ == baselines_.size();
        });
        if (failure_) return;
        if (!ready_.empty()) {
          node = ready_.top();
          ready_.pop();
          is_case = true;
        } else if (next_baseline_ < baselines_.size()) {
          node = next_baseline_++;
        } else {
          return;
        }
      }
      try {
        if (is_case) {
          run_case(node);
        } else {
          run_baseline(node);
        }
      } catch (...) {
        // Stop every worker; run() rethrows once they have all returned.
        {
          const std::lock_guard<std::mutex> lock(mu_);
          if (!failure_) failure_ = std::current_exception();
        }
        ready_cv_.notify_all();
        return;
      }
    }
  }

  void run_baseline(std::size_t b) {
    Baseline& baseline = baselines_[b];
    baseline.result = run_campaign_baseline(*baseline.config, baseline.seed);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const std::size_t c : baseline.cases) ready_.push(c);
      ++finished_baselines_;
    }
    ready_cv_.notify_all();
  }

  void run_case(std::size_t c) {
    const Case& node = cases_[c];
    Baseline& baseline = baselines_[node.baseline];
    const CampaignConfig& config = *campaigns_[node.campaign];
    results_[c] = run_campaign_case(config, config.cases[node.index], baseline.result);
    {
      trace::TraceLog released;  // freed outside the lock, before any drain
      const std::lock_guard<std::mutex> lock(mu_);
      if (--baseline.open_cases == 0) released = std::move(baseline.result.trace);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_[c] = 1;
    // Another worker already draining will reach this case; this one goes
    // back to dispatching instead of waiting for a slow sink.
    if (draining_) return;
    draining_ = true;
    drain(lock);
  }

  /// Hands the finished declaration-order prefix to the sinks: each case to
  /// sink_, and each campaign whose cases have all been handed over is
  /// stitched and passed to on_campaign_.  Called with `lock` held on mu_
  /// and draining_ claimed; the sinks run unlocked.  A throwing sink leaves
  /// draining_ set, so no sink is called again.
  void drain(std::unique_lock<std::mutex>& lock) {
    for (;;) {
      if (next_campaign_ < campaigns_.size() && case_offset_[next_campaign_ + 1] <= next_emit_) {
        const std::size_t c = next_campaign_++;
        lock.unlock();
        const auto first = results_.begin() + static_cast<std::ptrdiff_t>(case_offset_[c]);
        const auto last = results_.begin() + static_cast<std::ptrdiff_t>(case_offset_[c + 1]);
        stitched_[c] = stitch_case_results(
            std::vector<CaseResult>(std::make_move_iterator(first), std::make_move_iterator(last)));
        if (on_campaign_) on_campaign_(c, stitched_[c]);
        lock.lock();
      } else if (next_emit_ < cases_.size() && done_[next_emit_] != 0) {
        const std::size_t k = next_emit_++;
        lock.unlock();
        if (sink_) sink_(cases_[k].campaign, cases_[k].index, results_[k]);
        lock.lock();
      } else {
        draining_ = false;
        return;
      }
    }
  }

  std::vector<const CampaignConfig*> campaigns_;
  std::vector<Baseline> baselines_;           ///< in first-appearance order
  std::vector<Case> cases_;                   ///< in (campaign, case) order
  std::vector<std::size_t> case_offset_;      ///< campaign c owns [offset[c], offset[c+1])
  std::vector<CaseResult> results_;           ///< one slot per case, written once
  std::vector<CampaignResult> stitched_;      ///< one slot per campaign, written once

  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready_;
  std::size_t next_baseline_ = 0;
  std::size_t finished_baselines_ = 0;
  std::exception_ptr failure_;  ///< first exception a task threw

  CaseSink sink_;
  CampaignSink on_campaign_;
  std::vector<char> done_;       ///< case finished (guarded by mu_)
  std::size_t next_emit_ = 0;    ///< first case not yet handed to sink_
  std::size_t next_campaign_ = 0;  ///< first campaign not yet stitched
  bool draining_ = false;        ///< a worker is inside drain()
};

}  // namespace

std::vector<CampaignResult> run_campaigns(std::span<const CampaignConfig> configs, int jobs,
                                          const CaseSink& sink, const CampaignSink& on_campaign) {
  std::vector<const CampaignConfig*> campaigns;
  std::vector<std::size_t> family;
  for (const CampaignConfig& config : configs) {
    family.push_back(campaigns.size());
    campaigns.push_back(&config);
  }
  return CampaignGraph(std::move(campaigns), family, sink, on_campaign).run(jobs);
}

CampaignResult run_campaign(const CampaignConfig& config) {
  return std::move(run_campaigns(std::span(&config, 1), 1).front());
}

MitigationStudy run_mitigation_study(const CampaignConfig& config) {
  if (config.mitigation.empty()) {
    throw std::invalid_argument(
        "run_mitigation_study: config.mitigation is off; nothing to compare");
  }
  // Baselines depend on neither faults nor mitigation: both sides are one
  // family, so each seed's baseline runs once and feeds both children.
  CampaignConfig off_config = config;
  off_config.mitigation = ctrl::MitigationConfig{};
  std::vector<CampaignResult> sides =
      CampaignGraph({&off_config, &config}, {0, 0}, {}, {}).run(1);
  return MitigationStudy{std::move(sides[0]), std::move(sides[1])};
}

monitor::Dataset Campaign::run() {
  CampaignResult result = run_campaign(config_);
  outcomes_ = std::move(result.outcomes);
  return std::move(result.dataset);
}

}  // namespace qif::core
