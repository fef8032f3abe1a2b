#include "qif/pfs/layout.hpp"

#include <algorithm>

namespace qif::pfs {
namespace {

// splitmix64 finalizer used purely for object placement; independent of the
// Rng streams so layouts are a function of (file id, slot) alone.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FileLayout::FileLayout(FileId file, std::vector<OstId> osts, std::int64_t stripe_size,
                       std::int64_t disk_capacity)
    : osts_(std::move(osts)), stripe_size_(stripe_size) {
  bases_.reserve(osts_.size());
  // Leave generous headroom so objects can grow without wrapping; alignment
  // to 1 MiB keeps placement visually sane in traces.
  const std::int64_t usable = std::max<std::int64_t>(disk_capacity / 2, 1 << 20);
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    const auto h = mix(static_cast<std::uint64_t>(file) * 131 + i);
    const std::int64_t base =
        static_cast<std::int64_t>(h % static_cast<std::uint64_t>(usable)) & ~((1ll << 20) - 1);
    bases_.push_back(base);
  }
}

void FileLayout::map(std::int64_t offset, std::int64_t len, std::vector<Extent>& out) const {
  out.clear();
  const auto n = static_cast<std::int64_t>(osts_.size());
  std::int64_t pos = offset;
  std::int64_t remaining = len;
  while (remaining > 0) {
    const std::int64_t stripe_index = pos / stripe_size_;
    const std::int64_t slot = stripe_index % n;          // which OST
    const std::int64_t row = stripe_index / n;           // object-local stripe row
    const std::int64_t in_stripe = pos % stripe_size_;
    const std::int64_t take = std::min(remaining, stripe_size_ - in_stripe);
    const std::int64_t obj_off = row * stripe_size_ + in_stripe;
    const std::int64_t disk_off = bases_[static_cast<std::size_t>(slot)] + obj_off;
    if (!out.empty() && out.back().ost == osts_[static_cast<std::size_t>(slot)] &&
        out.back().disk_offset + out.back().len == disk_off) {
      out.back().len += take;  // coalesce contiguous pieces
    } else {
      out.push_back(Extent{osts_[static_cast<std::size_t>(slot)], disk_off, take});
    }
    pos += take;
    remaining -= take;
  }
}

}  // namespace qif::pfs
