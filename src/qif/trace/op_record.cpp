#include "qif/trace/op_record.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "qif/sim/hash.hpp"

namespace qif::trace {
namespace {

/// Appends `items` to `arena` and returns the index of the first one.
/// Arena indices are 32-bit: they live in the 80-byte row.
template <typename T>
std::uint32_t append(std::vector<T>& arena, std::span<const T> items, const char* what) {
  const std::size_t first = arena.size();
  if (items.size() > UINT32_MAX - first) {
    throw std::length_error(std::string("trace log ") + what + " arena is full");
  }
  arena.insert(arena.end(), items.begin(), items.end());
  return static_cast<std::uint32_t>(first);
}

}  // namespace

TraceLog::TraceLog(const TraceLog& other)
    : targets_(other.targets_), meta_(other.meta_), paths_(other.paths_),
      observer_(other.observer_) {
  blocks_.reserve(other.blocks_.size());
  for (std::size_t done = 0; done < other.size_; done += kBlockRows) {
    add_block();
    const std::size_t n = std::min(kBlockRows, other.size_ - done);
    std::copy_n(other.blocks_[done >> kBlockShift].get(), n, blocks_.back().get());
  }
  size_ = other.size_;
}

TraceLog::TraceLog(TraceLog&& other) noexcept
    : blocks_(std::move(other.blocks_)), size_(std::exchange(other.size_, 0)),
      targets_(std::move(other.targets_)), meta_(std::move(other.meta_)),
      paths_(std::move(other.paths_)), observer_(std::move(other.observer_)) {
  other.clear();
}

TraceLog& TraceLog::operator=(TraceLog other) noexcept {
  std::swap(blocks_, other.blocks_);
  std::swap(size_, other.size_);
  std::swap(targets_, other.targets_);
  std::swap(meta_, other.meta_);
  std::swap(paths_, other.paths_);
  std::swap(observer_, other.observer_);
  return *this;
}

void TraceLog::add_block() {
  // Raw storage: a row is constructed in place when recorded, so a block's
  // untouched tail costs address space, not resident memory.
  Block block(static_cast<OpRecord*>(::operator new(kBlockRows * sizeof(OpRecord))));
  blocks_.push_back(std::move(block));
}

void TraceLog::record(const OpRecord& row, Targets targets, std::string_view path,
                      std::int32_t stripes, std::int32_t stripe_hint) {
  if (size_ == blocks_.size() * kBlockRows) add_block();
  OpRecord* slot = ::new (blocks_[size_ >> kBlockShift].get() + (size_ & kBlockMask)) OpRecord(row);
  slot->targets_first_ = append(targets_, targets, "target");
  slot->targets_count_ = static_cast<std::uint32_t>(targets.size());
  slot->meta_ = OpRecord::kNoMeta;
  if (!path.empty() || stripes != 0 || stripe_hint != -1) {
    if (meta_.size() >= OpRecord::kNoMeta) {
      throw std::length_error("trace log metadata table is full");
    }
    MetaRow m;
    m.path_first = append(paths_, std::span<const char>(path.data(), path.size()), "path");
    m.path_len = static_cast<std::uint32_t>(path.size());
    m.stripes = stripes;
    m.stripe_hint = stripe_hint;
    slot->meta_ = static_cast<std::uint32_t>(meta_.size());
    meta_.push_back(m);
  }
  ++size_;
  if (observer_) observer_(*slot, Targets(targets_.data() + slot->targets_first_, targets.size()));
}

TraceLog::Targets TraceLog::targets(const OpRecord& rec) const {
  if (rec.targets_first_ > targets_.size() ||
      rec.targets_count_ > targets_.size() - rec.targets_first_) {
    throw std::out_of_range("op record's targets lie outside this trace log");
  }
  return {targets_.data() + rec.targets_first_, rec.targets_count_};
}

OpMeta TraceLog::meta(const OpRecord& rec) const {
  if (rec.meta_ == OpRecord::kNoMeta) return {};
  if (rec.meta_ >= meta_.size()) {
    throw std::out_of_range("op record's metadata lies outside this trace log");
  }
  const MetaRow& m = meta_[rec.meta_];
  return {std::string_view(paths_.data() + m.path_first, m.path_len), m.stripes,
          m.stripe_hint};
}

void TraceLog::clear() {
  blocks_.clear();
  size_ = 0;
  targets_.clear();
  meta_.clear();
  paths_.clear();
}

void TraceLog::reserve(std::size_t n) {
  const std::size_t blocks = (n + kBlockRows - 1) >> kBlockShift;
  blocks_.reserve(blocks);
  while (blocks_.size() < blocks) add_block();
  targets_.reserve(n);
}

std::vector<OpRecord> TraceLog::sorted_for_job(std::int32_t job) const {
  // The log is completion-ordered: ranks interleave, but each rank's ops
  // almost always complete in op_index order.  So instead of
  // comparison-sorting the whole job, bucket its records by rank in one
  // stable counting pass and sort only a bucket whose op_index order is
  // broken.  The result equals a stable sort by (rank, op_index).
  std::vector<std::size_t> picked;
  std::int64_t lo = 0;
  std::int64_t hi = -1;
  for (std::size_t i = 0; i < size_; ++i) {
    const OpRecord& r = row(i);
    if (r.job != job) continue;
    lo = picked.empty() ? r.rank : std::min<std::int64_t>(lo, r.rank);
    hi = picked.empty() ? r.rank : std::max<std::int64_t>(hi, r.rank);
    picked.push_back(i);
  }
  const auto rank_of = [this](std::size_t i) { return row(i).rank; };
  const auto index_of = [this](std::size_t i) { return row(i).op_index; };
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
  for (const std::size_t i : order) out.push_back(row(i));
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
    for (const auto t : log.targets(r)) mix(t);
  }
  return h;
}

}  // namespace qif::trace
