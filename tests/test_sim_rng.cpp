// Unit and property tests for the deterministic RNG streams and the
// FNV-1a helpers they (and every checksum) are built on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "qif/sim/hash.hpp"
#include "qif/sim/rng.hpp"

namespace qif::sim {
namespace {

TEST(Fnv1a, MatchesPublishedFnv1a64Vectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
  // Hashing in pieces continues the same stream.
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
  EXPECT_EQ(fnv1a("foobar", 6, kFnvOffsetBasis), fnv1a("foobar"));
}

TEST(Fnv1a, WordFoldedVariantFoldsWholeWordsAndHashesTheTailBytewise) {
  // Under 8 bytes there is no whole word: the folded hash is FNV-1a.
  EXPECT_EQ(fnv1a_words("foobar", 6), fnv1a("foobar"));
  const char text[] = "12345678ab";
  std::uint64_t word = 0;
  std::memcpy(&word, text, sizeof word);
  const std::uint64_t folded = (kFnvOffsetBasis ^ word) * kFnvPrime;
  EXPECT_EQ(fnv1a_words(text, 10), fnv1a("ab", folded));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DeriveSeedDependsOnLabel) {
  const auto a = Rng::derive_seed(7, "ost0");
  const auto b = Rng::derive_seed(7, "ost1");
  const auto c = Rng::derive_seed(8, "ost0");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, Rng::derive_seed(7, "ost0"));  // stable
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(4);
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform(-2.0, 5.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
  EXPECT_LT(lo, -1.5);
  EXPECT_GT(hi, 4.5);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(0.25);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng r(6);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.03);
}

TEST(Rng, ChanceProbability) {
  Rng r(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng r(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

struct IntRange {
  std::int64_t lo;
  std::int64_t hi;
};

class UniformIntTest : public ::testing::TestWithParam<IntRange> {};

TEST_P(UniformIntTest, StaysInClosedRangeAndHitsEndpoints) {
  const auto [lo, hi] = GetParam();
  Rng r(static_cast<std::uint64_t>(lo * 31 + hi));
  bool hit_lo = false, hit_hi = false;
  const int draws = (hi - lo) < 50 ? 20000 : 100000;
  for (int i = 0; i < draws; ++i) {
    const std::int64_t v = r.uniform_int(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
    hit_lo = hit_lo || v == lo;
    hit_hi = hit_hi || v == hi;
  }
  if (hi - lo < 1000) {
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformIntTest,
                         ::testing::Values(IntRange{0, 0}, IntRange{0, 1},
                                           IntRange{-5, 5}, IntRange{0, 6},
                                           IntRange{100, 107},
                                           IntRange{0, 1'000'000'000}));

TEST(Rng, UniformIntUnbiasedSmallRange) {
  Rng r(9);
  std::vector<int> counts(6, 0);
  const int n = 600000;
  for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(r.uniform_int(0, 5))] += 1;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 6.0, n / 6.0 * 0.03);
  }
}

}  // namespace
}  // namespace qif::sim
