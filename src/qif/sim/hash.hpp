// FNV-1a-64: the one hash behind qif's checksums and fingerprints.
//
// Byte-wise fnv1a() checksums the .qifm model and .qwp program files,
// hashes the MetricSchema layout, fingerprints traces, picks MDT stripe
// starts and derives Rng child seeds.  fnv1a_words() is the word-folded
// variant of the .qds/.qdm data files.  Both stay inline: the MDT hash runs
// on every file create and the folded checksum over every .qds byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace qif::sim {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Start value of trace_fingerprint, the MDT stripe-start hash and
/// Rng::derive_seed: 1469598103934665603, which is NOT the FNV offset basis
/// (14695981039346656037, one digit longer).  Goldens pin it — changing it
/// would move every trace fingerprint, OST placement and derived seed.
inline constexpr std::uint64_t kFnvSimSeed = 1469598103934665603ull;

/// Byte-wise FNV-1a over `n` bytes, continuing from `h` (no default, so a
/// two-argument call always means the string_view overload below).
inline std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffsetBasis) {
  return fnv1a(bytes.data(), bytes.size(), h);
}

/// The .qds checksum: FNV-1a folded 8 bytes at a time (one xor-multiply
/// per native-order word instead of per byte), byte-wise over the tail.
/// Word-wise so the checksum pass stays negligible next to the column
/// reads — the reader hashes every payload byte of multi-megabyte files.
inline std::uint64_t fnv1a_words(const void* data, std::size_t n,
                                 std::uint64_t h = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    h ^= word;
    h *= kFnvPrime;
  }
  return fnv1a(p + i, n - i, h);
}

}  // namespace qif::sim
