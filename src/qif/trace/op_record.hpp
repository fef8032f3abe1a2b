// DXT-style per-operation trace records.
//
// The paper's client-side monitor is a modified Darshan with DXT extended
// tracing: one record per POSIX-level I/O operation with sub-microsecond
// start/end stamps.  These records are the ground truth everything else is
// derived from — the client-side window features, the Figure 1 series, and
// the degradation labels (by matching records between a baseline run and an
// interference run).
//
// A record is a fixed-width, trivially copyable row.  Its variable-length
// parts live in arenas owned by the TraceLog it was recorded into: the
// server ids it touched in one int32 target arena, and the replay metadata
// of namespace ops (path, create layout) in a side table whose path bytes
// share one char arena.  The row holds only indices into them, so copying
// a row is a memcpy, and `log.targets(rec)` / `log.path(rec)` resolve it —
// or any copy of it — for as long as the log lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "qif/pfs/types.hpp"
#include "qif/sim/time.hpp"

namespace qif::trace {

class TraceLog;

struct OpRecord {
  std::int32_t job = 0;           ///< workload instance id within the run
  pfs::Rank rank = 0;             ///< issuing process
  std::int64_t op_index = 0;      ///< per-rank monotonically increasing index
  pfs::FileId file = pfs::kInvalidFile;
  std::int64_t offset = 0;        ///< file offset (data ops)
  std::int64_t bytes = 0;         ///< payload size (data ops)
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  // Fault-injection outcome (all zero/false on healthy runs; populated only
  // when the client timeout/retry machinery is enabled).
  std::int32_t retries = 0;   ///< RPC attempts re-issued after a timeout
  std::int32_t timeouts = 0;  ///< deadline expiries observed by this op
  pfs::OpType type = pfs::OpType::kRead;
  bool failed = false;        ///< retries exhausted — op surfaced EIO

  [[nodiscard]] sim::SimDuration duration() const { return end - start; }

 private:
  friend class TraceLog;
  static constexpr std::uint32_t kNoMeta = UINT32_MAX;

  // Set by TraceLog::record; a row built by hand resolves to no targets
  // and no metadata.
  std::uint32_t targets_first_ = 0;
  std::uint32_t targets_count_ = 0;
  std::uint32_t meta_ = kNoMeta;  ///< side-table index, kNoMeta for data ops
};

static_assert(std::is_trivially_copyable_v<OpRecord>);
static_assert(sizeof(OpRecord) <= 80);

/// Sentinel "server id" for the metadata target in `targets` and in the
/// per-server feature vectors (OSTs use their dense ids 0..n-1; the MDT is
/// appended after them by the cluster, so this constant is resolved against
/// a concrete cluster via Cluster::mdt_server_index()).
inline constexpr std::int32_t kMdtTarget = -1;

/// Replay metadata of one record (the DXT v2 columns): the namespace path
/// a metadata op addressed and the layout request of a create.  These let
/// trace replay re-issue the op stream against a fresh cluster; they are
/// deliberately excluded from trace_fingerprint(), which covers the
/// semantic op stream the golden pins are stated in.
struct OpMeta {
  std::string_view path;          ///< create/open/stat/unlink/mkdir target path
  std::int32_t stripes = 0;       ///< kCreate: requested stripe count (0 = all OSTs)
  std::int32_t stripe_hint = -1;  ///< kCreate: requested starting OST (-1 = hashed)
};

/// An append-only in-memory trace log for one run.  Completion-ordered.
///
/// Rows are stored in fixed-size blocks, so growth never moves a recorded
/// row or holds two copies of the log; targets and metadata are appended
/// to the per-log arenas.  Spans and views a log hands out stay valid until
/// the log records again (the arenas may grow) or dies.
class TraceLog {
 public:
  using Targets = std::span<const std::int32_t>;
  /// Invoked with each row as it is recorded and the targets stored for it.
  using Observer = std::function<void(const OpRecord&, Targets)>;

  /// Random-access view of the rows in completion order.
  class Rows;

  TraceLog() = default;
  TraceLog(const TraceLog& other);
  TraceLog(TraceLog&& other) noexcept;
  TraceLog& operator=(TraceLog other) noexcept;
  ~TraceLog() = default;

  /// Appends one op: `row`'s scalar fields, the servers it touched, and —
  /// for namespace ops — its replay metadata.  Data ops pass no metadata.
  /// `targets` and `path` must not point into this log's own arenas.
  void record(const OpRecord& row, Targets targets = {}, std::string_view path = {},
              std::int32_t stripes = 0, std::int32_t stripe_hint = -1);

  /// Installs a streaming observer invoked for every record as it is
  /// emitted — the hook the client-side monitor attaches to (the moral
  /// equivalent of Darshan's shared-memory ring being drained by the
  /// aggregator process).
  void set_observer(Observer obs) { observer_ = std::move(obs); }
  [[nodiscard]] bool has_observer() const { return static_cast<bool>(observer_); }

  /// The servers `rec` touched: OST ids for data ops, kMdtTarget for
  /// metadata.  `rec` must be a row of this log or a copy of one.
  [[nodiscard]] Targets targets(const OpRecord& rec) const;
  /// `rec`'s replay metadata; defaults for data ops.
  [[nodiscard]] OpMeta meta(const OpRecord& rec) const;
  [[nodiscard]] std::string_view path(const OpRecord& rec) const { return meta(rec).path; }

  [[nodiscard]] Rows records() const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear();
  /// Pre-allocates room for `n` rows with one target each, so recording
  /// them allocates nothing.
  void reserve(std::size_t n);

  /// Records of one job sorted by (rank, op_index) — the canonical order
  /// used for baseline/interference matching.  The copies resolve through
  /// this log like the originals.
  [[nodiscard]] std::vector<OpRecord> sorted_for_job(std::int32_t job) const;

 private:
  static constexpr std::size_t kBlockShift = 12;
  static constexpr std::size_t kBlockRows = std::size_t{1} << kBlockShift;
  static constexpr std::size_t kBlockMask = kBlockRows - 1;

  struct FreeBlock {
    void operator()(OpRecord* block) const { ::operator delete(block); }
  };
  using Block = std::unique_ptr<OpRecord, FreeBlock>;

  struct MetaRow {
    std::uint32_t path_first = 0;
    std::uint32_t path_len = 0;
    std::int32_t stripes = 0;
    std::int32_t stripe_hint = -1;
  };

  [[nodiscard]] const OpRecord& row(std::size_t i) const {
    return blocks_[i >> kBlockShift].get()[i & kBlockMask];
  }
  void add_block();

  std::vector<Block> blocks_;
  std::size_t size_ = 0;
  std::vector<std::int32_t> targets_;
  std::vector<MetaRow> meta_;
  std::vector<char> paths_;
  Observer observer_;
};

class TraceLog::Rows {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = OpRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const OpRecord*;
    using reference = const OpRecord&;

    iterator() = default;
    iterator(const Block* blocks, std::size_t i) : blocks_(blocks), i_(i) {}

    reference operator*() const { return blocks_[i_ >> kBlockShift].get()[i_ & kBlockMask]; }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }
    iterator& operator++() { ++i_; return *this; }
    iterator operator++(int) { iterator t = *this; ++i_; return t; }
    iterator& operator--() { --i_; return *this; }
    iterator operator--(int) { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type n) {
      i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) { return it += n; }
    friend iterator operator+(difference_type n, iterator it) { return it += n; }
    friend iterator operator-(iterator it, difference_type n) { return it -= n; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) - static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) { return a.i_ == b.i_; }
    friend auto operator<=>(const iterator& a, const iterator& b) { return a.i_ <=> b.i_; }

   private:
    const Block* blocks_ = nullptr;
    std::size_t i_ = 0;
  };
  using const_iterator = iterator;

  Rows(const Block* blocks, std::size_t size) : blocks_(blocks), size_(size) {}

  [[nodiscard]] iterator begin() const { return {blocks_, 0}; }
  [[nodiscard]] iterator end() const { return {blocks_, size_}; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  const OpRecord& operator[](std::size_t i) const {
    return begin()[static_cast<std::ptrdiff_t>(i)];
  }
  [[nodiscard]] const OpRecord& front() const { return (*this)[0]; }
  [[nodiscard]] const OpRecord& back() const { return (*this)[size_ - 1]; }

 private:
  const Block* blocks_;
  std::size_t size_;
};

static_assert(std::random_access_iterator<TraceLog::Rows::iterator>);

inline TraceLog::Rows TraceLog::records() const { return Rows(blocks_.data(), size_); }

/// FNV-1a fingerprint over the full record stream in completion (log)
/// order, covering every semantic field of every record (the replay
/// metadata — path/stripes/stripe_hint — is excluded so pre-metadata
/// golden fingerprints stay valid).  Two runs with equal
/// fingerprints produced byte-identical op streams (`qif run` prints it so
/// scripts can assert that equality end to end).
[[nodiscard]] std::uint64_t trace_fingerprint(const TraceLog& log);

}  // namespace qif::trace
