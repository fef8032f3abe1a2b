// Tests for the opt-in server read cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "qif/pfs/ost.hpp"
#include "qif/pfs/read_cache.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

TEST(ReadCache, DisabledByDefault) {
  ReadCache cache(ReadCacheParams{});
  EXPECT_FALSE(cache.enabled());
  cache.insert(0, 4096);
  EXPECT_FALSE(cache.lookup(0, 4096));
  EXPECT_EQ(cache.cached_bytes(), 0);
}

TEST(ReadCache, HitRequiresFullCoverage) {
  ReadCache cache(ReadCacheParams{1 << 20});
  cache.insert(1000, 5000);
  EXPECT_TRUE(cache.lookup(1000, 5000));
  EXPECT_TRUE(cache.lookup(2000, 1000));
  EXPECT_FALSE(cache.lookup(0, 1500));     // head not cached
  EXPECT_FALSE(cache.lookup(5000, 2000));  // tail exceeds extent
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ReadCache, AdjacentInsertsCoalesce) {
  ReadCache cache(ReadCacheParams{1 << 20});
  cache.insert(0, 4096);
  cache.insert(4096, 4096);
  EXPECT_TRUE(cache.lookup(0, 8192));
  EXPECT_EQ(cache.cached_bytes(), 8192);
}

TEST(ReadCache, OverlappingInsertDoesNotDoubleCount) {
  ReadCache cache(ReadCacheParams{1 << 20});
  cache.insert(0, 8192);
  cache.insert(4096, 8192);  // overlaps the second half
  EXPECT_EQ(cache.cached_bytes(), 12288);
  EXPECT_TRUE(cache.lookup(0, 12288));
}

TEST(ReadCache, AppendsAndRewritesMatchAByteSetModel) {
  // Appends grow an extent in place and same-offset rewrites re-key the
  // surviving tail; whatever node a change reuses, the cache must hold
  // exactly the byte set of a FIFO-evicted bitmap, with the same hits.
  constexpr std::int64_t kSpan = 1 << 12;
  constexpr std::int64_t kCapacity = 1500;
  ReadCache cache(ReadCacheParams{kCapacity});
  std::vector<bool> bytes(kSpan, false);
  std::deque<std::pair<std::int64_t, std::int64_t>> fifo;
  const auto set = [&](std::int64_t off, std::int64_t len, bool v) {
    for (std::int64_t b = off; b < off + len; ++b) bytes[static_cast<std::size_t>(b)] = v;
  };
  const auto count = [&] { return std::count(bytes.begin(), bytes.end(), true); };
  std::mt19937_64 rng(5);
  std::int64_t cursor = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::int64_t len = 1 + static_cast<std::int64_t>(rng() % 200);
    std::int64_t off = static_cast<std::int64_t>(rng() % (kSpan - 200));
    switch (rng() % 4) {
      case 0:  // streaming append
        off = cursor;
        cursor = (cursor + len) % (kSpan - 200);
        break;
      case 1:  // rewrite at an earlier write's offset
        if (!fifo.empty()) off = fifo[rng() % fifo.size()].first;
        break;
      default:
        break;
    }
    if (rng() % 3 == 0) {
      bool covered = true;
      for (std::int64_t b = off; b < off + len; ++b) {
        covered = covered && bytes[static_cast<std::size_t>(b)];
      }
      ASSERT_EQ(cache.lookup(off, len), covered) << "step " << step;
      if (covered) fifo.emplace_back(off, len);
      continue;
    }
    cache.insert(off, len);
    set(off, len, true);
    fifo.emplace_back(off, len);
    while (count() > kCapacity && !fifo.empty()) {
      set(fifo.front().first, fifo.front().second, false);
      fifo.pop_front();
    }
    ASSERT_EQ(cache.cached_bytes(), count()) << "step " << step;
  }
}

TEST(ReadCache, FifoEvictionRespectsBudget) {
  ReadCache cache(ReadCacheParams{10000});
  cache.insert(0, 6000);
  cache.insert(100000, 6000);  // pushes over budget: first extent evicted
  EXPECT_LE(cache.cached_bytes(), 10000);
  EXPECT_FALSE(cache.lookup(0, 6000));
  EXPECT_TRUE(cache.lookup(100000, 6000));
}

TEST(ReadCache, OstServesHitsAtMemorySpeed) {
  sim::Simulation s;
  DiskParams dp;
  dp.service_jitter = 0.0;
  WritebackParams wp;
  ReadCacheParams rc;
  rc.capacity_bytes = 64 << 20;
  Ost ost(s, 0, dp, wp, 1, rc);
  sim::SimTime hit_done = 0, miss_done = 0;
  ost.write(0, 1 << 20, nullptr);
  s.run_all();
  const sim::SimTime t0 = s.now();
  ost.read(0, 1 << 20, [&] { hit_done = s.now() - t0; });
  s.run_all();
  const sim::SimTime t1 = s.now();
  ost.read(500ll << 20, 1 << 20, [&] { miss_done = s.now() - t1; });
  s.run_all();
  EXPECT_LT(sim::to_millis(hit_done), 1.0);   // memcpy path
  EXPECT_GT(sim::to_millis(miss_done), 5.0);  // media path
  EXPECT_EQ(ost.read_cache().hits(), 1);
  EXPECT_EQ(ost.read_cache().misses(), 1);
}

TEST(ReadCache, OstDisabledCacheAlwaysHitsMedia) {
  sim::Simulation s;
  DiskParams dp;
  dp.service_jitter = 0.0;
  Ost ost(s, 0, dp, WritebackParams{}, 1);
  ost.write(0, 1 << 20, nullptr);
  s.run_all();
  const sim::SimTime t0 = s.now();
  sim::SimTime done = 0;
  ost.read(0, 1 << 20, [&] { done = s.now() - t0; });
  s.run_all();
  EXPECT_GT(sim::to_millis(done), 5.0);
}

}  // namespace
}  // namespace qif::pfs
