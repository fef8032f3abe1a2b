#include "qif/sim/pipe.hpp"

#include <cmath>
#include <utility>

namespace qif::sim {

void Pipe::ring_push(Message msg) {
  if (count_ == ring_.size()) {
    // Grow once and re-pack in FIFO order; steady state never re-enters.
    std::vector<Message> bigger;
    bigger.reserve(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
    }
    bigger.resize(bigger.capacity());
    ring_ = std::move(bigger);
    head_ = 0;
  }
  ring_[(head_ + count_) % ring_.size()] = std::move(msg);
  ++count_;
}

Pipe::Message Pipe::ring_pop() {
  Message msg = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return msg;
}

bool Pipe::send(std::int64_t bytes, InlineTask on_delivered) {
  if (loss_gate_ && loss_gate_()) {
    ++messages_dropped_;
    return false;  // dropped on the wire: no link time, callback never fires
  }
  ring_push(Message{bytes < 0 ? 0 : bytes, std::move(on_delivered)});
  if (!busy_) start_next();
  return true;
}

void Pipe::start_next() {
  if (count_ == 0) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Message msg = ring_pop();
  current_bytes_ = msg.bytes;
  current_done_ = std::move(msg.on_delivered);
  const auto serialize = static_cast<SimDuration>(
      std::ceil(static_cast<double>(current_bytes_) / bytes_per_second_ * 1e9));
  // The pipe frees up after serialization; propagation overlaps with the
  // next message (cut-through at the far end).
  sim_.schedule_after(serialize, [this] { on_serialized(); });
}

void Pipe::on_serialized() {
  bytes_sent_ += current_bytes_;
  // Park the callback in a pooled slot; the delivery event then only needs
  // {this, slot}, independent of pipe state (multiple deliveries overlap).
  std::uint32_t slot;
  if (!delivery_free_.empty()) {
    slot = delivery_free_.back();
    delivery_free_.pop_back();
    delivery_pool_[slot] = std::move(current_done_);
  } else {
    slot = static_cast<std::uint32_t>(delivery_pool_.size());
    delivery_pool_.push_back(std::move(current_done_));
  }
  // Deliver after the propagation latency, independently of pipe state.
  sim_.schedule_after(latency_, [this, slot] {
    InlineTask fn = std::move(delivery_pool_[slot]);
    delivery_free_.push_back(slot);
    if (fn) fn();
  });
  start_next();
}

}  // namespace qif::sim
