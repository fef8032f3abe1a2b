// Deterministic token bucket for client admission control.
//
// The bucket meters bytes: tokens refill continuously at `rate` bytes per
// simulated second up to `capacity` (the burst allowance).  All arithmetic
// is exact 128-bit integer math over nanosecond timestamps — the fractional
// token remainder is carried in byte-nanosecond units, so the total volume
// admitted over any span equals floor(rate * elapsed / 1s) exactly, no
// matter how the span is partitioned into refill calls.  That exactness is
// what the controller's determinism contract rides on: a mitigated run must
// replay bit-identically at every --jobs count, which rules out
// floating-point refill accumulation (whose rounding depends on call
// cadence).
#pragma once

#include <cstdint>

#include "qif/sim/simulation.hpp"

namespace qif::ctrl {

class TokenBucket {
 public:
  /// Starts full at `now`.  `capacity` and `rate` must be > 0.
  TokenBucket(std::int64_t capacity_bytes, std::int64_t rate_bytes_per_s,
              sim::SimTime now);

  /// Refills to `now`, then atomically consumes `bytes` if available.
  /// Returns true on success; on failure consumes nothing.
  bool try_consume(std::int64_t bytes, sim::SimTime now);

  /// Refills to `now`, then returns the exact additional wait until
  /// `bytes` tokens will be available (0 = available now).  The bound is
  /// tight: at now + wait a try_consume(bytes) succeeds, at any earlier
  /// instant it fails.  `bytes` above capacity can never be served; the
  /// wait is computed as if the cap were absent (callers clamp requests to
  /// the capacity — data-op chunks are capped at max_rpc_bytes, far below
  /// any sane burst size).
  [[nodiscard]] sim::SimDuration wait_for(std::int64_t bytes, sim::SimTime now);

  /// Refills to `now` and changes the refill rate.  The tokens accrued so
  /// far (including the fractional carry) are kept, so a rate change is a
  /// kink in the refill curve, not a reset.
  void set_rate(std::int64_t rate_bytes_per_s, sim::SimTime now);

  /// Refills to `now` and returns the whole tokens available.
  [[nodiscard]] std::int64_t available(sim::SimTime now);

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t rate() const { return rate_; }

 private:
  void refill(sim::SimTime now);

  std::int64_t capacity_;
  std::int64_t rate_;
  std::int64_t tokens_;  ///< whole bytes available
  std::int64_t carry_;   ///< fractional remainder in byte-nanoseconds, < 1s
  sim::SimTime last_;    ///< clock position the balance is settled to
};

}  // namespace qif::ctrl
