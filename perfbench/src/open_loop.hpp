// Open-loop load generator for qif::serve::InferenceService.
//
// Independent users make an open loop: request i is due at
// t0 + i / rate whether or not earlier requests have been answered.  One
// generator thread waits for each due time and submits (shedding the
// request if the ring is full); the service's batcher thread answers.
// Latency is timed from the due time, not the submit time, so a stalled
// generator or a full queue charges its wait to every request it delayed;
// how late the generator itself ran is reported separately.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "qif/serve/batcher.hpp"
#include "qif/serve/service.hpp"

namespace perfbench {

struct OpenLoopConfig {
  double rate_rps = 100000.0;
  double duration_s = 0.3;
  qif::serve::ServiceConfig service{};
  /// Test hook: runs on the generator thread right before request i is
  /// submitted (used to inject a stall).
  std::function<void(std::size_t)> before_submit;
};

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< done - due, one per answered request
  std::vector<std::size_t> answered;  ///< offered index of each answered request
  std::vector<double> lag_us;      ///< submit - due, one per offered request
  std::vector<std::size_t> batch_rows;  ///< rows of each batch, one per batch
  std::vector<std::size_t> request_rows;  ///< rows of the batch each answered request rode in
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;      ///< refused by the full ring (shed)
  std::uint64_t batches = 0;
  std::uint64_t full_batches = 0;
  std::uint64_t timeout_batches = 0;
  std::uint64_t mismatches = 0;    ///< replies differing from the single-row path
  double gen_start_s = 0.0;        ///< host clock (s) of the first due time
  bool backlog_growing = false;

  [[nodiscard]] double latency_p(double q) const;
  /// Meets the limit: p99 within `p99_limit_us`, nothing shed, no growing backlog.
  [[nodiscard]] bool meets(double p99_limit_us) const;
};

/// Single-row reference outputs for a fixed set of feature rows.
struct ReplyReference {
  std::vector<int> cls;
  std::vector<std::vector<double>> probs;
  std::vector<std::vector<double>> scores;
};

/// Computes each row's reply through predict_batch with a batch of one.
[[nodiscard]] ReplyReference single_row_reference(const qif::serve::ServingModel& model,
                                                  const std::vector<double>& rows,
                                                  std::size_t n_rows);

/// Offers `rows` (n_rows flattened feature rows, cycled) at the configured
/// rate and compares every reply against `reference` bit for bit.
[[nodiscard]] OpenLoopResult run_open_loop(std::shared_ptr<const qif::serve::ServingModel> model,
                                           const std::vector<double>& rows, std::size_t n_rows,
                                           const ReplyReference& reference,
                                           const OpenLoopConfig& config);

/// Latency of each request timed from its due time (exposed for tests).
[[nodiscard]] std::vector<double> latencies_from_due(const std::vector<std::int64_t>& due_ns,
                                                     const std::vector<std::int64_t>& done_ns);

/// predict_batch re-timed at the batch sizes a run observed.
struct BatchTiming {
  std::vector<double> sample_us;               ///< one per sampled batch
  std::map<std::size_t, double> median_us_by_rows;
};

/// Times predict_batch (host microseconds) at up to `max_samples` of the
/// observed batch sizes, spread evenly over the run.
[[nodiscard]] BatchTiming time_batches(const qif::serve::ServingModel& model,
                                               const std::vector<double>& rows,
                                               std::size_t n_rows,
                                               const std::vector<std::size_t>& batch_rows,
                                               std::size_t max_samples);

}  // namespace perfbench
