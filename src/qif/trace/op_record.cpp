#include "qif/trace/op_record.hpp"

#include <algorithm>

#include "qif/sim/hash.hpp"

namespace qif::trace {

std::vector<OpRecord> TraceLog::sorted_for_job(std::int32_t job) const {
  // The log is completion-ordered: ranks interleave, but each rank's ops
  // almost always complete in op_index order.  So instead of
  // comparison-sorting the whole job, bucket its records by rank in one
  // stable counting pass and sort only a bucket whose op_index order is
  // broken.  The result equals a stable sort by (rank, op_index).
  std::vector<std::size_t> picked;
  std::int64_t lo = 0;
  std::int64_t hi = -1;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const OpRecord& r = records_[i];
    if (r.job != job) continue;
    lo = picked.empty() ? r.rank : std::min<std::int64_t>(lo, r.rank);
    hi = picked.empty() ? r.rank : std::max<std::int64_t>(hi, r.rank);
    picked.push_back(i);
  }
  const auto rank_of = [this](std::size_t i) { return records_[i].rank; };
  const auto index_of = [this](std::size_t i) { return records_[i].op_index; };
  std::vector<std::size_t> order(picked.size());
  std::vector<std::size_t> bucket_end;  // exclusive end of each rank's run in `order`
  const std::int64_t span = hi - lo + 1;
  if (span <= static_cast<std::int64_t>(2 * picked.size() + 64)) {
    // Dense ranks (every trace the simulator writes): counting sort.
    std::vector<std::size_t> start(static_cast<std::size_t>(span) + 1, 0);
    for (const std::size_t i : picked) ++start[static_cast<std::size_t>(rank_of(i) - lo) + 1];
    for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    bucket_end.assign(start.begin() + 1, start.end());
    for (const std::size_t i : picked) order[start[static_cast<std::size_t>(rank_of(i) - lo)]++] = i;
  } else {
    // Sparse ranks (an imported trace): a stable sort by rank alone.
    order = picked;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return rank_of(a) < rank_of(b); });
    for (std::size_t k = 1; k <= order.size(); ++k) {
      if (k == order.size() || rank_of(order[k]) != rank_of(order[k - 1])) bucket_end.push_back(k);
    }
  }
  const auto by_index = [&](std::size_t a, std::size_t b) { return index_of(a) < index_of(b); };
  std::size_t first = 0;
  for (const std::size_t last : bucket_end) {
    const auto b = order.begin() + static_cast<std::ptrdiff_t>(first);
    const auto e = order.begin() + static_cast<std::ptrdiff_t>(last);
    if (!std::is_sorted(b, e, by_index)) std::stable_sort(b, e, by_index);
    first = last;
  }
  std::vector<OpRecord> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(records_[i]);
  return out;
}

std::uint64_t trace_fingerprint(const TraceLog& log) {
  std::uint64_t h = sim::kFnvSimSeed;
  const auto mix = [&h](std::int64_t v) {
    // Little-endian bytes of the value, whatever the host byte order.
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> (8 * i));
    }
    h = sim::fnv1a(bytes, sizeof bytes, h);
  };
  for (const OpRecord& r : log.records()) {
    mix(r.job);
    mix(r.rank);
    mix(r.op_index);
    mix(static_cast<std::int64_t>(r.type));
    mix(r.file);
    mix(r.offset);
    mix(r.bytes);
    mix(r.start);
    mix(r.end);
    mix(r.retries);
    mix(r.timeouts);
    mix(r.failed ? 1 : 0);
    for (const auto t : r.targets) mix(t);
  }
  return h;
}

}  // namespace qif::trace
