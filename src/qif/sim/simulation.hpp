// The discrete-event simulation core.
//
// A Simulation owns the virtual clock and a pooled 4-ary min-heap of
// pending events.  Components schedule closures at absolute or relative
// times; run() pops events in (when, seq) order, where `seq` is a
// per-engine creation counter, so simultaneous events fire in their
// scheduling order (FIFO), which makes every run fully deterministic.
//
// Engine layout (the campaign hot path — see DESIGN.md "Event engine
// internals"):
//   * Closures live in InlineTask slots inside a pooled slab; scheduling
//     never heap-allocates in steady state (freed slots are recycled
//     through a free list).
//   * The heap itself holds 24-byte (when, seq, slot) entries, so sift
//     operations move small PODs and comparisons never touch the slab.
//     4-ary layout halves the tree depth vs. a binary heap and keeps the
//     children of a node in one cache line.
//   * cancel() is a true O(log n) heap removal via the slot's back-pointer
//     into the heap — no tombstone list to scan at pop time, and nothing
//     accumulates for ids cancelled after their event already fired.
//   * An EventId packs (slot index + 1, slot generation); a stale id —
//     already fired, already cancelled, or slot since reused — fails the
//     generation check and cancel() is a no-op, preserving the historical
//     "cancel after fire is safe" contract.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "qif/sim/inline_task.hpp"
#include "qif/sim/time.hpp"

namespace qif::sim {

/// Handle for a scheduled event; lets the scheduler cancel it later.
/// Handles are unique within one Simulation until a single slot has been
/// reused 2^32 times (far beyond any campaign's event count).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute simulated time `when` (must be
  /// >= now()).  Returns a handle usable with cancel().
  EventId schedule_at(SimTime when, InlineTask fn);

  /// Schedules `fn` to run `delay` nanoseconds from now.
  EventId schedule_after(SimDuration delay, InlineTask fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event in O(log n).  Safe to call with an id that
  /// already fired or was already cancelled (it becomes a no-op); this is
  /// how timeouts are torn down.
  void cancel(EventId id);

  /// Runs events until the queue is empty or the clock passes `until`.
  /// Events at exactly `until` still fire.  Returns the number of events
  /// executed.
  std::uint64_t run_until(SimTime until);

  /// Runs until the event queue drains completely.
  std::uint64_t run_all() { return run_until(std::numeric_limits<SimTime>::max()); }

  /// Number of events that have ever been executed.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.  Cancelled events leave the queue
  /// immediately, so this is exact (the old engine counted cancelled-but-
  /// unswept tombstones here).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Slots ever allocated (pending + free-listed).  Bounded by the peak
  /// number of simultaneously pending events — exposed so tests can assert
  /// that cancel churn and stale cancels do not grow the engine.
  [[nodiscard]] std::size_t slot_slab_size() const { return slots_.size(); }

  /// Full structural self-check: heap property, back-pointer consistency,
  /// free-list integrity.  O(n); used by tests and debug assertions.
  [[nodiscard]] bool check_invariants() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;  // creation order; FIFO tie-break among equal `when`
    std::uint32_t slot;
  };
  static_assert(sizeof(HeapEntry) == 24, "sift moves 24-byte entries");

  struct Slot {
    InlineTask fn;
    std::uint32_t heap_pos = kNil;  // position in heap_, kNil when free
    std::uint32_t gen = 0;          // bumped on release; validates EventIds
    std::uint32_t next_free = kNil;
  };

  static bool precedes(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void place(std::uint32_t pos, HeapEntry entry);  // write entry + back-pointer
  void sift_up(std::uint32_t pos, HeapEntry entry);
  void sift_down(std::uint32_t pos, HeapEntry entry);
  void heap_erase(std::uint32_t pos);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
};

}  // namespace qif::sim
