// File striping layout, Lustre-style.
//
// A file is striped round-robin across a list of OSTs in fixed-size stripe
// units.  Each (file, OST) pair is one *object*; objects are placed at
// pseudo-random disk addresses so that distinct files on the same OST are
// far apart (an aged filesystem), while access within one object stays
// sequential.  This placement is what turns "two concurrent sequential
// streams" into the seek traffic that dominates read-vs-read interference.
#pragma once

#include <cstdint>
#include <vector>

#include "qif/pfs/types.hpp"

namespace qif::pfs {

struct Extent {
  OstId ost = 0;               ///< target OST
  std::int64_t disk_offset = 0;  ///< absolute address on that OST's disk
  std::int64_t len = 0;
};

class FileLayout {
 public:
  FileLayout() = default;
  FileLayout(FileId file, std::vector<OstId> osts, std::int64_t stripe_size,
             std::int64_t disk_capacity);

  [[nodiscard]] const std::vector<OstId>& osts() const { return osts_; }
  [[nodiscard]] std::int64_t stripe_size() const { return stripe_size_; }

  /// Splits the file range [offset, offset+len) into per-OST disk extents,
  /// in file order, replacing the contents of `out` (a caller-owned buffer,
  /// so a steady stream of data ops maps without allocating).  Adjacent
  /// pieces on the same OST within one stripe row are already coalesced by
  /// construction.
  void map(std::int64_t offset, std::int64_t len, std::vector<Extent>& out) const;

  /// Disk address where this file's object on stripe slot `idx` starts.
  [[nodiscard]] std::int64_t object_base(std::size_t idx) const { return bases_[idx]; }

 private:
  std::vector<OstId> osts_;
  std::vector<std::int64_t> bases_;
  std::int64_t stripe_size_ = 1 << 20;
};

}  // namespace qif::pfs
