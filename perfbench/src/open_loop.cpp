#include "open_loop.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <thread>

#include "util.hpp"

namespace perfbench {

namespace serve = qif::serve;

double OpenLoopResult::latency_p(double q) const { return quantile(latency_us, q); }

bool OpenLoopResult::meets(double p99_limit_us) const {
  return rejected == 0 && !backlog_growing && !latency_us.empty() &&
         latency_p(0.99) <= p99_limit_us;
}

ReplyReference single_row_reference(const serve::ServingModel& model,
                                    const std::vector<double>& rows, std::size_t n_rows) {
  const std::size_t feat = model.feature_dim();
  ReplyReference ref;
  serve::PredictScratch scratch;
  serve::Request req;
  serve::Request* rp = &req;
  for (std::size_t r = 0; r < n_rows; ++r) {
    req.reset();
    req.features = rows.data() + r * feat;
    req.n_features = feat;
    serve::predict_batch(model, &rp, 1, scratch);
    ref.cls.push_back(req.predicted_class);
    ref.probs.push_back(req.probabilities);
    ref.scores.push_back(req.server_scores);
  }
  return ref;
}

std::vector<double> latencies_from_due(const std::vector<std::int64_t>& due_ns,
                                       const std::vector<std::int64_t>& done_ns) {
  std::vector<double> out;
  out.reserve(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size() && i < done_ns.size(); ++i) {
    out.push_back(static_cast<double>(done_ns[i] - due_ns[i]) / 1e3);
  }
  return out;
}

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

OpenLoopResult run_open_loop(std::shared_ptr<const serve::ServingModel> model,
                             const std::vector<double>& rows, std::size_t n_rows,
                             const ReplyReference& reference, const OpenLoopConfig& config) {
  const std::size_t feat = model->feature_dim();
  const auto n = static_cast<std::size_t>(config.rate_rps * config.duration_s);
  const double period_ns = 1e9 / config.rate_rps;
  std::deque<serve::Request> reqs(n);
  std::vector<std::int64_t> due(n);
  std::vector<std::int64_t> submitted(n);
  std::vector<char> accepted(n, 0);

  serve::InferenceService service(model, config.service);
  service.start();
  // Due times start 1 ms out so thread start-up is not charged to request 0.
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      while (now_ns() < due[i]) {
      }
      if (config.before_submit) config.before_submit(i);
      serve::Request& r = reqs[i];
      r.features = rows.data() + (i % n_rows) * feat;
      r.n_features = feat;
      r.enqueue_ns = now_ns();
      submitted[i] = r.enqueue_ns;
      accepted[i] = service.try_submit(&r) ? 1 : 0;
    }
  });
  generator.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (accepted[i] != 0) reqs[i].wait();
  }
  service.stop();

  OpenLoopResult out;
  out.offered = n;
  out.gen_start_s = static_cast<double>(t0) / 1e9;
  std::vector<std::int64_t> due_ok;
  std::vector<std::int64_t> done_ok;
  std::uint64_t last_batch = ~0ull;
  for (std::size_t i = 0; i < n; ++i) {
    out.lag_us.push_back(static_cast<double>(submitted[i] - due[i]) / 1e3);
    if (accepted[i] == 0) {
      ++out.rejected;
      continue;
    }
    const serve::Request& r = reqs[i];
    out.answered.push_back(i);
    due_ok.push_back(due[i]);
    done_ok.push_back(r.done_ns);
    out.request_rows.push_back(r.batch_rows);
    if (r.batch_seq != last_batch) {
      out.batch_rows.push_back(r.batch_rows);
      last_batch = r.batch_seq;
    }
    const std::size_t row = i % n_rows;
    if (r.predicted_class != reference.cls[row] || !same_bits(r.probabilities, reference.probs[row]) ||
        !same_bits(r.server_scores, reference.scores[row])) {
      ++out.mismatches;
    }
  }
  out.latency_us = latencies_from_due(due_ok, done_ok);
  const serve::ServiceStats& st = service.stats();
  out.batches = st.batches.load();
  out.full_batches = st.full_batches.load();
  out.timeout_batches = st.timeout_batches.load();
  // A growing backlog shows as latency that keeps climbing over the run:
  // compare the last quarter's median with the first quarter's.
  const std::size_t q = out.latency_us.size() / 4;
  if (q > 0) {
    const std::vector<double> first(out.latency_us.begin(), out.latency_us.begin() + q);
    const std::vector<double> last(out.latency_us.end() - q, out.latency_us.end());
    out.backlog_growing = median(last) > 2.0 * median(first) + 200.0;
  }
  return out;
}

BatchTiming time_batches(const serve::ServingModel& model,
                                 const std::vector<double>& rows, std::size_t n_rows,
                                 const std::vector<std::size_t>& batch_rows,
                                 std::size_t max_samples) {
  const std::size_t feat = model.feature_dim();
  std::size_t max_rows = 1;
  for (const std::size_t b : batch_rows) max_rows = std::max(max_rows, b);
  std::deque<serve::Request> reqs(max_rows);
  std::vector<serve::Request*> ptrs;
  for (std::size_t i = 0; i < max_rows; ++i) {
    reqs[i].features = rows.data() + (i % n_rows) * feat;
    reqs[i].n_features = feat;
    ptrs.push_back(&reqs[i]);
  }
  serve::PredictScratch scratch;
  serve::predict_batch(model, ptrs.data(), max_rows, scratch);  // warm scratch
  BatchTiming out;
  std::map<std::size_t, std::vector<double>> by_rows;
  const std::size_t stride =
      std::max<std::size_t>(1, batch_rows.size() / std::max<std::size_t>(1, max_samples));
  for (std::size_t k = 0; k < batch_rows.size(); k += stride) {
    const double t = now_s();
    serve::predict_batch(model, ptrs.data(), batch_rows[k], scratch);
    const double us = (now_s() - t) * 1e6;
    out.sample_us.push_back(us);
    by_rows[batch_rows[k]].push_back(us);
  }
  for (auto& [rows_n, v] : by_rows) out.median_us_by_rows[rows_n] = median(std::move(v));
  return out;
}

}  // namespace perfbench
