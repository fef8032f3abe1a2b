// Heap-allocation accounting for the event-engine and RPC hot paths.
//
// The acceptance bar for the engine rebuild: zero heap allocations per
// scheduled event in steady state, for closures of every shape the pfs
// layer schedules today (up to ~104 bytes of captures, including
// std::function members moved through); the same bar holds for a fabric
// RPC, and a PfsClient data op stays under a pinned per-op count.  This
// binary replaces global operator new/delete with counting versions; each
// test warms its subject up (so slabs, heaps, and reusable buffers reach
// their steady-state capacity) and then counts the allocations of a
// measured window.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "qif/pfs/cluster.hpp"
#include "qif/pfs/network.hpp"
#include "qif/sim/fair_link.hpp"
#include "qif/sim/pipe.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/op_record.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

struct AllocWindow {
  std::uint64_t start = g_allocs.load(std::memory_order_relaxed);
  [[nodiscard]] std::uint64_t count() const {
    return g_allocs.load(std::memory_order_relaxed) - start;
  }
};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qif::sim {
namespace {

// Representative of the largest closures the pfs layer builds today (the
// client's metadata completions: this, a path string, ids, shared result
// and stats handles and the caller's std::function callback): ~104 bytes
// including a moved std::function member.
struct BigCapture {
  void* self = nullptr;
  std::int64_t a = 0, b = 0, c = 0, d = 0;
  std::int64_t payload[4] = {0, 0, 0, 0};
  std::function<void()> cb;
};

TEST(EngineAllocations, SteadyStateScheduleAndFireIsAllocationFree) {
  Simulation s;
  int fired = 0;
  std::function<void()> cb = [&fired] { ++fired; };
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      BigCapture big;
      big.cb = cb;
      s.schedule_after(1 + i, [big = std::move(big)] {
        if (big.cb) big.cb();
      });
      s.schedule_after(2 + i, [&fired] { ++fired; });
    }
    s.run_all();
  };
  burst(256);  // warm-up: grows the slot slab and the heap once
  const AllocWindow w;
  burst(256);
  EXPECT_EQ(w.count(), 0u) << "event scheduling/firing allocated in steady state";
  EXPECT_GT(fired, 0);
}

TEST(EngineAllocations, CancelChurnIsAllocationFree) {
  Simulation s;
  int fired = 0;
  auto churn = [&](int n) {
    EventId pending = kInvalidEvent;
    for (int i = 0; i < n; ++i) {
      s.cancel(pending);
      pending = s.schedule_after(1000, [&fired] { ++fired; });
    }
    s.run_all();
  };
  churn(512);
  const AllocWindow w;
  churn(512);
  EXPECT_EQ(w.count(), 0u) << "cancel/reschedule churn allocated in steady state";
}

TEST(EngineAllocations, FairLinkTransfersAreAllocationFreeInSteadyState) {
  Simulation s;
  FairLink link(s, 1e9);
  int done = 0;
  auto round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      link.transfer(1 << 16, [&done] { ++done; });
    }
    s.run_all();
  };
  round(64);  // warm-up: flows_ vector, done_ buffer, engine slab
  const AllocWindow w;
  round(64);
  EXPECT_EQ(w.count(), 0u) << "FairLink transfer/completion allocated in steady state";
  EXPECT_EQ(done, 128);
}

TEST(EngineAllocations, PipeDeliveriesAreAllocationFreeInSteadyState) {
  Simulation s;
  Pipe pipe(s, 1e9, 100);
  int done = 0;
  auto round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      pipe.send(4096, [&done] { ++done; });
    }
    s.run_all();
  };
  round(64);  // warm-up: message queue, delivery pool, engine slab
  const AllocWindow w;
  round(64);
  EXPECT_EQ(w.count(), 0u) << "Pipe send/delivery allocated in steady state";
  EXPECT_EQ(done, 128);
}

TEST(EngineAllocations, FabricRpcsAreAllocationFreeInSteadyState) {
  Simulation s;
  pfs::NetworkFabric net(s, pfs::NetworkParams{}, 4, 3);
  int done = 0;
  auto round = [&](int n) {
    for (int i = 0; i < n; ++i) {
      net.rpc(i % 4, i % 3, 4096, 65536,
              [&s](pfs::RpcDone d) { s.schedule_after(1000, d); }, [&done] { ++done; });
    }
    s.run_all();
  };
  round(64);  // warm-up: call slab, pipe/link buffers, engine slab
  const AllocWindow w;
  round(64);
  EXPECT_EQ(w.count(), 0u) << "fabric RPC allocated in steady state";
  EXPECT_EQ(done, 128);
}

// A healthy single-chunk write, issued back to back the way a rank's op
// stream does, allocates nothing per op: its trace row lands in a reserved
// TraceLog, the layout maps into the DataOp's own extent buffer, and the
// rewrite grows the write-back cache's dirty extent in place.  Only the
// lazy flusher allocates now and then (a disk request's queue node and
// completion vector): 3 allocations over the 256 measured ops.  The same
// chain made 3 allocations per op while each trace row carried its own
// target vector, and 14 while the RPC path was built from nested
// std::function continuations with per-chunk copies of the op's completion.
TEST(ClientAllocations, HealthySingleChunkWriteStaysAtItsPinnedCount) {
  constexpr std::uint64_t kPinnedAllocsPerWrite = 0;
  constexpr std::uint64_t kFlusherSlack = 8;
  Simulation s;
  pfs::ClusterConfig cfg;
  pfs::Cluster cluster(s, cfg);
  pfs::PfsClient& client = cluster.make_client(0, 0, 0);
  const pfs::FileLayout layout(1, {0}, cfg.stripe_size, cfg.ost_disk.capacity_bytes);
  const pfs::FileHandle fh{1, &layout, 0};
  int remaining = 0;
  std::function<void()> next = [&] {
    if (remaining-- > 0) client.write(fh, 0, 64 << 10, [&next] { next(); });
  };
  auto chain = [&](int n) {
    remaining = n;
    next();
    s.run_all();
  };
  cluster.trace_log().reserve(1024);
  chain(64);  // warm-up: DataOp pool, call slab, engine slab, flusher state
  constexpr int kOps = 256;
  const AllocWindow w;
  chain(kOps);
  const std::uint64_t allocs = w.count();
  EXPECT_LE(allocs, kPinnedAllocsPerWrite * kOps + kFlusherSlack)
      << "per-op allocations grew: " << static_cast<double>(allocs) / kOps;
  EXPECT_EQ(cluster.trace_log().size(), 64u + kOps);
}

// Recording data-op rows into a reserved TraceLog copies each row into its
// block and each target into the arena: no allocation per row.
TEST(TraceAllocations, RecordingIntoAReservedLogIsAllocationFree) {
  constexpr int kRows = 10000;
  trace::TraceLog log;
  log.reserve(kRows);
  trace::OpRecord row;
  row.type = pfs::OpType::kWrite;
  row.bytes = 64 << 10;
  const std::int32_t target[] = {3};
  const AllocWindow w;
  for (int i = 0; i < kRows; ++i) {
    row.op_index = i;
    log.record(row, target);
  }
  EXPECT_EQ(w.count(), 0u) << "recording a data-op row allocated";
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(log.targets(log.records().back()).front(), 3);
}

}  // namespace
}  // namespace qif::sim
