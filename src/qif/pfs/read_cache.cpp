#include "qif/pfs/read_cache.hpp"

#include <algorithm>

namespace qif::pfs {

void ReadCache::erase_range(std::int64_t lo, std::int64_t hi) {
  // Trim a predecessor overlapping the range.
  if (auto it = extents_.lower_bound(lo); it != extents_.begin()) {
    auto prev = std::prev(it);
    const std::int64_t pend = prev->first + prev->second;
    if (pend > lo) {
      const std::int64_t cut = std::min(pend, hi) - lo;
      prev->second = lo - prev->first;
      cached_bytes_ -= cut;
      if (pend > hi) extents_[hi] = pend - hi;
      if (prev->second == 0) extents_.erase(prev);
    }
  }
  for (auto it = extents_.lower_bound(lo); it != extents_.end() && it->first < hi;
       it = extents_.lower_bound(lo)) {
    const std::int64_t end = it->first + it->second;
    if (end <= hi) {
      cached_bytes_ -= it->second;
      extents_.erase(it);
    } else {
      // The surviving tail re-keys the same node.
      cached_bytes_ -= hi - it->first;
      auto node = extents_.extract(it);
      node.key() = hi;
      node.mapped() = end - hi;
      extents_.insert(std::move(node));
      break;
    }
  }
}

void ReadCache::insert(std::int64_t offset, std::int64_t len) {
  if (!enabled() || len <= 0) return;
  // Replace any overlap, then add the fresh extent (keeps accounting exact).
  erase_range(offset, offset + len);
  // Coalesce with neighbours, reusing an existing node: an append grows its
  // predecessor in place, and an extent starting right after the new one
  // (the tail a same-offset rewrite left) is re-keyed to the new start.
  auto next = extents_.lower_bound(offset);
  const bool joins_next = next != extents_.end() && next->first == offset + len;
  auto prev = next == extents_.begin() ? extents_.end() : std::prev(next);
  if (prev != extents_.end() && prev->first + prev->second == offset) {
    prev->second += len;
    if (joins_next) {
      prev->second += next->second;
      extents_.erase(next);
    }
  } else if (joins_next) {
    auto node = extents_.extract(next);
    node.key() = offset;
    node.mapped() += len;
    extents_.insert(std::move(node));
  } else {
    extents_.emplace_hint(next, offset, len);
  }
  cached_bytes_ += len;
  fifo_.emplace_back(offset, len);
  evict_to_budget();
}

void ReadCache::evict_to_budget() {
  while (cached_bytes_ > params_.capacity_bytes && !fifo_.empty()) {
    const auto [off, len] = fifo_.front();
    fifo_.pop_front();
    erase_range(off, off + len);
  }
}

bool ReadCache::lookup(std::int64_t offset, std::int64_t len) {
  if (!enabled()) return false;
  // Find the extent containing `offset`.
  bool covered = false;
  if (auto it = extents_.upper_bound(offset); it != extents_.begin()) {
    auto prev = std::prev(it);
    covered = prev->first <= offset && prev->first + prev->second >= offset + len;
  }
  (covered ? hits_ : misses_) += 1;
  // Touch-on-hit: refresh recency so hot small files survive streaming
  // writers sweeping through the FIFO budget (LRU approximation).
  if (covered) fifo_.emplace_back(offset, len);
  return covered;
}

}  // namespace qif::pfs
