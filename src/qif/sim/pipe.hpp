// FIFO store-and-forward resource.
//
// A Pipe serializes messages one at a time at a fixed byte rate with a fixed
// per-message latency — the model we use for a client host's NIC egress and
// for RPC framing overhead.  Unlike FairLink (which models converged fair
// sharing at a contended port), a Pipe preserves strict arrival order, which
// matters for per-rank op streams: a rank's requests may not overtake each
// other.
//
// Allocation discipline: the waiting queue is a grow-once ring buffer (a
// deque would allocate/free blocks as it marches), and delivery callbacks
// park in a pooled slot so the in-flight delivery event captures only
// {this, slot index} instead of the full closure.  After warm-up a pipe
// performs zero heap allocations per message (asserted by test_sim_alloc).
#pragma once

#include <cstdint>
#include <vector>

#include "qif/sim/simulation.hpp"

namespace qif::sim {

class Pipe {
 public:
  /// `bytes_per_second` — serialization rate; `latency` — fixed per-message
  /// propagation delay added after serialization.
  Pipe(Simulation& sim, double bytes_per_second, SimDuration latency)
      : sim_(sim), bytes_per_second_(bytes_per_second), latency_(latency) {}

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Enqueues a message; `on_delivered` fires once the message has fully
  /// serialized (in FIFO order) and propagated.  Returns false when the
  /// loss gate dropped the message (`on_delivered` is destroyed unfired), so
  /// an owner parking per-message state elsewhere can release it at once.
  bool send(std::int64_t bytes, InlineTask on_delivered);

  [[nodiscard]] std::size_t queue_depth() const { return count_ + (busy_ ? 1 : 0); }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }

  /// Fault injection: when set, the gate is consulted on every send(); a
  /// `true` return drops the message on the floor (no link time consumed,
  /// the delivery callback is destroyed unfired).  Unset by default — the
  /// healthy path takes no branch cost beyond one bool test.
  void set_loss_gate(InlineFn<bool()> gate) { loss_gate_ = std::move(gate); }
  [[nodiscard]] std::uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  struct Message {
    std::int64_t bytes;
    InlineTask on_delivered;
  };

  void start_next();
  void on_serialized();
  void ring_push(Message msg);
  Message ring_pop();

  Simulation& sim_;
  double bytes_per_second_;
  SimDuration latency_;

  // Ring buffer of waiting messages (head_ = oldest, count_ live entries).
  std::vector<Message> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;

  // The message currently serializing (busy_ == true).
  std::int64_t current_bytes_ = 0;
  InlineTask current_done_;

  // Pooled parking slots for callbacks riding out the propagation delay;
  // several deliveries can be in flight at once (cut-through overlap).
  std::vector<InlineTask> delivery_pool_;
  std::vector<std::uint32_t> delivery_free_;

  bool busy_ = false;
  std::int64_t bytes_sent_ = 0;
  InlineFn<bool()> loss_gate_;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace qif::sim
