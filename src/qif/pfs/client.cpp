#include "qif/pfs/client.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "qif/pfs/admission.hpp"
#include "qif/pfs/cluster.hpp"

namespace qif::pfs {

PfsClient::PfsClient(Cluster& cluster, NodeId node, Rank rank, std::int32_t job)
    : cluster_(cluster), sim_(cluster.sim()), node_(node), rank_(rank),
      job_(job),
      params_(cluster.config().client),
      retry_rng_(sim::Rng::derive_seed(
          cluster.config().seed, "client-retry/n" + std::to_string(node) + "/r" +
                                     std::to_string(rank) + "/j" + std::to_string(job))) {}

namespace {

/// The target list of a namespace op that touched only the MDS.
constexpr std::int32_t kMdtOnly[] = {trace::kMdtTarget};

}  // namespace

void PfsClient::emit(OpType type, FileId file, std::int64_t offset, std::int64_t bytes,
                     sim::SimTime start, std::span<const std::int32_t> targets,
                     const OpFaultStats* faults, std::string_view path,
                     std::int32_t stripes, std::int32_t stripe_hint) {
  trace::OpRecord rec;
  rec.job = job_;
  rec.rank = rank_;
  rec.op_index = next_op_index_++;
  rec.type = type;
  rec.file = file;
  rec.offset = offset;
  rec.bytes = bytes;
  rec.start = start;
  rec.end = sim_.now();
  if (faults != nullptr) {
    rec.retries = faults->retries;
    rec.timeouts = faults->timeouts;
    rec.failed = faults->failed;
    total_retries_ += faults->retries;
    total_timeouts_ += faults->timeouts;
    total_failed_ += faults->failed ? 1 : 0;
  }
  cluster_.trace_log().record(rec, targets, path, stripes, stripe_hint);
}

// ---------------------------------------------------------------------------
// RPC timeout/retry state machine.
//
// Each attempt arms a deadline timer; a response beats the timer or the
// timer beats the response.  A timed-out attempt backs off exponentially
// (with deterministic jitter from the client's own RNG stream) and
// re-issues, up to rpc_max_retries re-issues, after which the op fails with
// EIO.  Responses from superseded attempts are recognised by attempt number
// and dropped — at-least-once semantics, like a real RPC resend (server
// work is idempotent here).  Every attempt serves through the RetryOp, which
// keeps `serve` until the last attempt's fabric call ends, so a straggler
// arriving after the op settles simply re-executes idempotent server work,
// as a real resent RPC would.  With rpc_deadline == 0 none of this exists:
// the RPC goes straight to the fabric, scheduling no timer and drawing no
// randomness, so healthy runs replay the exact pre-fault event sequence.
// ---------------------------------------------------------------------------

template <typename ServeFn, typename DoneFn>
void PfsClient::rpc_faultable(int server_port, std::int64_t request_payload,
                              std::int64_t response_payload, ServeFn&& serve, DoneFn&& cb,
                              OpFaultStats* stats) {
  if (params_.rpc_deadline <= 0) {
    cluster_.net().rpc(node_, server_port, request_payload, response_payload,
                       std::forward<ServeFn>(serve),
                       [cb = std::forward<DoneFn>(cb)]() mutable { cb(true); });
    return;
  }
  auto op = std::make_shared<RetryOp>();
  op->server_port = server_port;
  op->request_payload = request_payload;
  op->response_payload = response_payload;
  op->serve = std::forward<ServeFn>(serve);
  op->cb = std::forward<DoneFn>(cb);
  op->stats = stats;
  issue_attempt(std::move(op));
}

void PfsClient::issue_attempt(std::shared_ptr<RetryOp> op) {
  const int my_attempt = ++op->attempt;
  op->timer = sim_.schedule_after(params_.rpc_deadline, [this, op, my_attempt] {
    if (op->done || op->attempt != my_attempt) return;  // superseded meanwhile
    op->timer = sim::kInvalidEvent;
    if (op->stats) ++op->stats->timeouts;
    if (op->attempt > params_.rpc_max_retries) {
      // Retries exhausted: surface EIO.  Late responses are ignored by the
      // done flag; stragglers still in flight re-run serve through the op.
      op->done = true;
      if (op->stats) op->stats->failed = true;
      auto cb = std::move(op->cb);
      cb(false);
      return;
    }
    if (op->stats) ++op->stats->retries;
    const double scale = static_cast<double>(1u << (op->attempt - 1));
    double wait = static_cast<double>(params_.retry_backoff) * scale;
    if (params_.retry_jitter > 0) {
      wait *= 1.0 + params_.retry_jitter * retry_rng_.next_double();
    }
    sim_.schedule_after(
        std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(wait)), [this, op] {
          // A late response may have completed the op during the backoff.
          if (!op->done) issue_attempt(op);
        });
  });
  cluster_.net().rpc(
      node_, op->server_port, op->request_payload, op->response_payload,
      [op](RpcDone done) { op->serve(done); },
      [this, op, my_attempt] {
        if (op->done || op->attempt != my_attempt) return;  // stale response
        op->done = true;
        if (op->timer != sim::kInvalidEvent) {
          sim_.cancel(op->timer);
          op->timer = sim::kInvalidEvent;
        }
        auto cb = std::move(op->cb);
        cb(true);
      });
}

// ---------------------------------------------------------------------------
// Metadata operations: one RPC to the MDS each.
// ---------------------------------------------------------------------------

void PfsClient::create(const std::string& path, int stripe_count, OpenCallback cb,
                       int stripe_hint) {
  const sim::SimTime start = sim_.now();
  // The MDS reply payload travels back through the RPC; a shared slot
  // carries it from the serve closure to the completion closure.
  auto result = std::make_shared<MetaResult>();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), /*request=*/256, /*response=*/256,
      [this, path = path, stripe_count, stripe_hint, result](RpcDone done) {
        cluster_.mdt().create(path, stripe_count, stripe_hint,
                              [result, done](const MetaResult& r) {
                                *result = r;
                                done();
                              });
      },
      [this, path = path, stripe_count, stripe_hint, result, start, cb = std::move(cb),
       stats](bool ok) {
        emit(OpType::kCreate, ok ? result->file : kInvalidFile, 0, 0, start, kMdtOnly,
             stats.get(), path, stripe_count, stripe_hint);
        if (ok) {
          cb(FileHandle{result->file, result->layout, result->size});
        } else {
          cb(FileHandle{});  // EIO: invalid handle, caller's ops degenerate
        }
      },
      stats.get());
}

void PfsClient::open(const std::string& path, OpenCallback cb) {
  const sim::SimTime start = sim_.now();
  auto result = std::make_shared<MetaResult>();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path = path, result](RpcDone done) {
        cluster_.mdt().open(path, [result, done](const MetaResult& r) {
          *result = r;
          done();
        });
      },
      [this, path = path, result, start, cb = std::move(cb), stats](bool ok) {
        emit(OpType::kOpen, ok ? result->file : kInvalidFile, 0, 0, start, kMdtOnly,
             stats.get(), path);
        cb(FileHandle{ok && result->ok ? result->file : kInvalidFile, result->layout,
                      result->size});
      },
      stats.get());
}

void PfsClient::stat(const std::string& path, StatCallback cb) {
  const sim::SimTime start = sim_.now();
  auto result = std::make_shared<MetaResult>();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path = path, result](RpcDone done) {
        cluster_.mdt().stat(path, [result, done](const MetaResult& r) {
          *result = r;
          done();
        });
      },
      [this, path = path, result, start, cb = std::move(cb), stats](bool ok) {
        emit(OpType::kStat, ok ? result->file : kInvalidFile, 0, 0, start, kMdtOnly,
             stats.get(), path);
        cb(ok && result->ok, result->size);
      },
      stats.get());
}

void PfsClient::close(const FileHandle& fh, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  auto stats = make_fault_stats();
  // Flush-on-close: a small file's dirty bytes are committed to the OST
  // synchronously before the namespace close, so the close op's latency
  // carries the full cost of whatever the target disk is suffering.
  if (auto it = small_dirty_.find(fh.file);
      it != small_dirty_.end() && !it->second.oversized && it->second.bytes > 0) {
    const SmallDirty dirty = it->second;
    small_dirty_.erase(it);
    OpFaultStats* const raw_stats = stats.get();
    rpc_faultable(
        cluster_.oss_port(dirty.ost), dirty.bytes, 0,
        [this, dirty](RpcDone done) {
          cluster_.ost(dirty.ost).write_sync(dirty.disk_offset, dirty.bytes, done);
        },
        [this, file = fh.file, start, ost = dirty.ost, stats = std::move(stats),
         cb = std::move(cb)](bool) mutable {
          // Whether or not the flush succeeded, the namespace close still
          // goes to the MDS (its own attempt budget, shared op stats).
          finish_close(file, start, ost, std::move(stats), std::move(cb));
        },
        raw_stats);
    return;
  }
  small_dirty_.erase(fh.file);
  finish_close(fh.file, start, std::nullopt, std::move(stats), std::move(cb));
}

void PfsClient::finish_close(FileId file, sim::SimTime start,
                             std::optional<OstId> flushed_ost,
                             std::shared_ptr<OpFaultStats> faults, DataCallback cb) {
  OpFaultStats* const raw_faults = faults.get();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, file](RpcDone done) {
        cluster_.mdt().close(file, [done](const MetaResult&) { done(); });
      },
      [this, file, start, flushed_ost, faults = std::move(faults),
       cb = std::move(cb)](bool) mutable {
        const std::int32_t targets[] = {flushed_ost.value_or(trace::kMdtTarget),
                                        trace::kMdtTarget};
        emit(OpType::kClose, file, 0, 0, start,
             std::span<const std::int32_t>(targets).first(flushed_ost ? 2 : 1), faults.get());
        cb();
      },
      raw_faults);
}

void PfsClient::note_small_write(FileId file, const Extent& first, std::int64_t len) {
  auto [it, inserted] = small_dirty_.try_emplace(file);
  SmallDirty& d = it->second;
  if (inserted) {
    d.ost = first.ost;
    d.disk_offset = first.disk_offset;
  }
  d.bytes += len;
  if (d.bytes > params_.small_file_flush_bytes) d.oversized = true;
}

void PfsClient::unlink(const std::string& path, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path = path](RpcDone done) {
        cluster_.mdt().unlink(path, [done](const MetaResult&) { done(); });
      },
      [this, path = path, start, stats, cb = std::move(cb)](bool) {
        emit(OpType::kUnlink, kInvalidFile, 0, 0, start, kMdtOnly, stats.get(), path);
        cb();
      },
      stats.get());
}

void PfsClient::mkdir(const std::string& path, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path = path](RpcDone done) {
        cluster_.mdt().mkdir(path, [done](const MetaResult&) { done(); });
      },
      [this, path = path, start, stats, cb = std::move(cb)](bool) {
        emit(OpType::kMkdir, kInvalidFile, 0, 0, start, kMdtOnly, stats.get(), path);
        cb();
      },
      stats.get());
}

// ---------------------------------------------------------------------------
// Data operations: stripe mapping, RPC chunking, bounded in-flight window.
// ---------------------------------------------------------------------------

void PfsClient::read(const FileHandle& fh, std::int64_t offset, std::int64_t len,
                     DataCallback cb) {
  data_op(/*is_write=*/false, fh, offset, len, std::move(cb));
}

void PfsClient::write(const FileHandle& fh, std::int64_t offset, std::int64_t len,
                      DataCallback cb) {
  data_op(/*is_write=*/true, fh, offset, len, std::move(cb));
}

PfsClient::DataOp* PfsClient::acquire_data_op() {
  if (free_data_ops_.empty()) {
    data_ops_.push_back(std::make_unique<DataOp>());
    return data_ops_.back().get();
  }
  DataOp* op = free_data_ops_.back();
  free_data_ops_.pop_back();
  return op;
}

void PfsClient::release_data_op(DataOp* op) {
  op->cb = nullptr;
  free_data_ops_.push_back(op);
}

void PfsClient::data_op(bool is_write, const FileHandle& fh, std::int64_t offset,
                        std::int64_t len, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  if (!fh.valid() || len <= 0) {
    // Degenerate op: still emits a record so op indices stay aligned with
    // the workload's issue sequence.
    sim_.schedule_after(sim::kMicrosecond, [this, is_write, fh, offset, start,
                                                      cb = std::move(cb)] {
      emit(is_write ? OpType::kWrite : OpType::kRead, fh.file, offset, 0, start, {});
      cb();
    });
    return;
  }

  DataOp* op = acquire_data_op();
  op->is_write = is_write;
  op->file = fh.file;
  op->offset = offset;
  op->len = len;
  op->start = start;
  op->stats = OpFaultStats{};
  op->cb = std::move(cb);
  op->drained = false;  // throttle_wait is already false on a released record
  // Chunk the stripe extents to the RPC size cap.
  op->chunks.clear();
  op->targets.clear();
  fh.layout->map(offset, len, op->extents);
  for (const Extent& e : op->extents) {
    std::int64_t pos = 0;
    while (pos < e.len) {
      const std::int64_t take = std::min(params_.max_rpc_bytes, e.len - pos);
      op->chunks.push_back(Chunk{e.ost, e.disk_offset + pos, take});
      pos += take;
    }
    if (std::find(op->targets.begin(), op->targets.end(), e.ost) == op->targets.end()) {
      op->targets.push_back(e.ost);
    }
  }
  op->next = 0;
  op->outstanding = 0;
  op->remaining = op->chunks.size();
  if (is_write) note_small_write(fh.file, op->extents.front(), len);
  pump(op);
}

// Issue chunks with at most max_rpcs_in_flight outstanding; every chunk
// completion re-enters the pump.  With an admission gate the pump
// additionally (a) clamps the window to the gate's concurrency cap, re-read
// before every chunk so a decision epoch takes effect mid-op, and (b) asks
// the gate before issuing each chunk — strictly before rpc_faultable, so a
// throttled chunk never arms a deadline timer and an admission delay can
// never read as a timeout or retry.  A refused ask parks the pump behind one
// wake-up event (single waiter per op); ungated clients take the exact
// pre-gate code path.
void PfsClient::pump(DataOp* op) {
  while (op->next < op->chunks.size()) {
    std::size_t cap = static_cast<std::size_t>(params_.max_rpcs_in_flight);
    if (gate_ != nullptr) {
      cap = static_cast<std::size_t>(
          std::clamp(gate_->concurrency_cap(), 1, params_.max_rpcs_in_flight));
    }
    if (op->outstanding >= cap) break;
    const Chunk c = op->chunks[op->next];
    const int port = cluster_.oss_port(c.ost);
    if (gate_ != nullptr) {
      const sim::SimDuration wait = gate_->acquire(port, c.len, sim_.now());
      if (wait > 0) {
        if (!op->throttle_wait) {
          op->throttle_wait = true;
          sim_.schedule_after(wait, [this, op] { throttle_wake(op); });
        }
        return;
      }
    }
    ++op->next;
    ++op->outstanding;
    const sim::SimTime issued = sim_.now();
    const bool is_write = op->is_write;
    rpc_faultable(
        port, is_write ? c.len : 0, is_write ? 0 : c.len,
        [this, is_write, c](RpcDone done) {
          if (is_write) {
            cluster_.ost(c.ost).write(c.disk_offset, c.len, done);
          } else {
            cluster_.ost(c.ost).read(c.disk_offset, c.len, done);
          }
        },
        [this, op, port, len = c.len, issued](bool) { chunk_done(op, port, len, issued); },
        &op->stats);
  }
}

void PfsClient::throttle_wake(DataOp* op) {
  op->throttle_wait = false;
  // The op may have drained meanwhile (a completion's pump was admitted
  // and issued the rest); its record waited for this event to retire.
  if (op->drained) {
    release_data_op(op);
  } else {
    pump(op);
  }
}

void PfsClient::chunk_done(DataOp* op, int port, std::int64_t len, sim::SimTime issued) {
  // ok=false already marked stats.failed; the op still drains its remaining
  // chunks so the completion count stays exact.
  if (gate_ != nullptr) gate_->on_chunk_complete(port, len, sim_.now() - issued);
  --op->outstanding;
  if (--op->remaining > 0) {
    pump(op);
    return;
  }
  // A failed op never reached the server coherently; don't grow the file.
  if (op->is_write && !op->stats.failed) {
    cluster_.mdt().note_size(op->file, op->offset + op->len);
  }
  emit(op->is_write ? OpType::kWrite : OpType::kRead, op->file, op->offset, op->len,
       op->start, op->targets, &op->stats);
  DataCallback cb = std::move(op->cb);
  if (op->throttle_wait) {
    op->drained = true;  // the pending wake-up retires the record
  } else {
    release_data_op(op);
  }
  cb();
}

}  // namespace qif::pfs
