// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from its own Rng stream,
// seeded explicitly from a (campaign seed, component name) pair.  This keeps
// runs bit-reproducible regardless of the order in which components are
// constructed, which the baseline/interference trace-matching pipeline
// depends on: the target workload must issue the *same* op sequence in both
// runs.
#pragma once

#include <cstdint>
#include <string_view>

#include "qif/sim/hash.hpp"

namespace qif::sim {

/// xoshiro256** by Blackman & Vigna, seeded through splitmix64.
/// Small, fast, and with far better statistical quality than the historical
/// LCGs; we avoid std::mt19937_64 because its 2.5 kB state is overkill for
/// the thousands of streams a campaign creates.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  /// Derives a child seed from a parent seed and a component label, so that
  /// e.g. every OST's disk jitter stream differs but is stable across runs.
  static std::uint64_t derive_seed(std::uint64_t parent, std::string_view label) {
    // FNV-1a over the label, mixed into the parent via splitmix64.
    std::uint64_t x = parent ^ fnv1a(label, kFnvSimSeed);
    return splitmix64(x);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [lo, hi] (inclusive).  Uses Lemire-style rejection to
  /// stay unbiased.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return lo + static_cast<std::int64_t>(v % range);
  }

  /// Exponential with the given mean (> 0).  Used for think times and
  /// arrival jitter.
  double exponential(double mean) {
    double u = next_double();
    // Guard u == 0 so log stays finite.
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * log_approx(u);
  }

  /// Standard normal via Marsaglia polar method (no cached spare — cheap
  /// enough and keeps the generator state a pure function of draw count).
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double p) { return next_double() < p; }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  static constexpr std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }
  static double log_approx(double v);

  std::uint64_t state_[4]{};
};

}  // namespace qif::sim
