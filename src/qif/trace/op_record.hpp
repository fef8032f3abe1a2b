// DXT-style per-operation trace records.
//
// The paper's client-side monitor is a modified Darshan with DXT extended
// tracing: one record per POSIX-level I/O operation with sub-microsecond
// start/end stamps.  These records are the ground truth everything else is
// derived from — the client-side window features, the Figure 1 series, and
// the degradation labels (by matching records between a baseline run and an
// interference run).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qif/pfs/types.hpp"
#include "qif/sim/time.hpp"

namespace qif::trace {

struct OpRecord {
  std::int32_t job = 0;           ///< workload instance id within the run
  pfs::Rank rank = 0;             ///< issuing process
  std::int64_t op_index = 0;      ///< per-rank monotonically increasing index
  pfs::OpType type = pfs::OpType::kRead;
  pfs::FileId file = pfs::kInvalidFile;
  std::int64_t offset = 0;        ///< file offset (data ops)
  std::int64_t bytes = 0;         ///< payload size (data ops)
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  /// Servers this op touched: OST ids for data ops; kMdtTarget for metadata.
  std::vector<std::int32_t> targets;
  // Fault-injection outcome (all zero/false on healthy runs; populated only
  // when the client timeout/retry machinery is enabled).
  std::int32_t retries = 0;   ///< RPC attempts re-issued after a timeout
  std::int32_t timeouts = 0;  ///< deadline expiries observed by this op
  bool failed = false;        ///< retries exhausted — op surfaced EIO
  // Replay metadata (the DXT v2 columns): the namespace path a metadata op
  // addressed and the layout request of a create.  These let trace replay
  // re-issue the op stream against a fresh cluster; they are deliberately
  // excluded from trace_fingerprint(), which covers the semantic op stream
  // the golden pins are stated in.
  std::string path;               ///< create/open/stat/unlink/mkdir target path
  std::int32_t stripes = 0;       ///< kCreate: requested stripe count (0 = all OSTs)
  std::int32_t stripe_hint = -1;  ///< kCreate: requested starting OST (-1 = hashed)

  [[nodiscard]] sim::SimDuration duration() const { return end - start; }
};

/// Sentinel "server id" for the metadata target in `targets` and in the
/// per-server feature vectors (OSTs use their dense ids 0..n-1; the MDT is
/// appended after them by the cluster, so this constant is resolved against
/// a concrete cluster via Cluster::mdt_server_index()).
inline constexpr std::int32_t kMdtTarget = -1;

/// An append-only in-memory trace log for one run.  Completion-ordered.
class TraceLog {
 public:
  using Observer = std::function<void(const OpRecord&)>;

  void record(OpRecord rec) {
    if (observer_) observer_(rec);
    records_.push_back(std::move(rec));
  }

  /// Installs a streaming observer invoked for every record as it is
  /// emitted — the hook the client-side monitor attaches to (the moral
  /// equivalent of Darshan's shared-memory ring being drained by the
  /// aggregator process).
  void set_observer(Observer obs) { observer_ = std::move(obs); }
  [[nodiscard]] bool has_observer() const { return static_cast<bool>(observer_); }

  [[nodiscard]] const std::vector<OpRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }
  void reserve(std::size_t n) { records_.reserve(n); }

  /// Records of one job sorted by (rank, op_index) — the canonical order
  /// used for baseline/interference matching.
  [[nodiscard]] std::vector<OpRecord> sorted_for_job(std::int32_t job) const;

 private:
  std::vector<OpRecord> records_;
  Observer observer_;
};

/// FNV-1a fingerprint over the full record stream in completion (log)
/// order, covering every semantic field of every record (the replay
/// metadata — path/stripes/stripe_hint — is excluded so pre-metadata
/// golden fingerprints stay valid).  Two runs with equal
/// fingerprints produced byte-identical op streams (`qif run` prints it so
/// scripts can assert that equality end to end).
[[nodiscard]] std::uint64_t trace_fingerprint(const TraceLog& log);

}  // namespace qif::trace
