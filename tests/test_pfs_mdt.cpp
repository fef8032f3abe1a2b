// Tests for the metadata server: namespace semantics, stripe placement,
// journal group commit, and counters.
#include <gtest/gtest.h>

#include <vector>

#include "qif/pfs/mdt.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

struct MdtFixture : ::testing::Test {
  sim::Simulation s;
  MdtParams mp;
  DiskParams dp;
  MdtFixture() {
    mp.cpu_jitter = 0.0;
    dp.service_jitter = 0.0;
  }
  std::unique_ptr<MdtServer> make(std::int64_t n_osts = 6) {
    return std::make_unique<MdtServer>(s, mp, dp, 1, n_osts, 1 << 20);
  }
};

TEST_F(MdtFixture, CreateAssignsIdsAndLayouts) {
  auto mdt = make();
  MetaResult r1, r2;
  mdt->create("/a", 1, -1, [&](const MetaResult& r) { r1 = r; });
  mdt->create("/b", 0, -1, [&](const MetaResult& r) { r2 = r; });
  s.run_all();
  EXPECT_TRUE(r1.ok);
  EXPECT_TRUE(r2.ok);
  EXPECT_NE(r1.file, r2.file);
  ASSERT_NE(r1.layout, nullptr);
  ASSERT_NE(r2.layout, nullptr);
  EXPECT_EQ(r1.layout->osts().size(), 1u);
  EXPECT_EQ(r2.layout->osts().size(), 6u);  // 0 = stripe over all
}

TEST_F(MdtFixture, StripeHintPinsStartingOst) {
  auto mdt = make();
  MetaResult r;
  mdt->create("/pinned", 2, 4, [&](const MetaResult& x) { r = x; });
  s.run_all();
  ASSERT_NE(r.layout, nullptr);
  ASSERT_EQ(r.layout->osts().size(), 2u);
  EXPECT_EQ(r.layout->osts()[0], 4);
  EXPECT_EQ(r.layout->osts()[1], 5);
}

TEST_F(MdtFixture, StripeHintWrapsModuloOsts) {
  auto mdt = make();
  MetaResult r;
  mdt->create("/wrap", 1, 13, [&](const MetaResult& x) { r = x; });
  s.run_all();
  ASSERT_NE(r.layout, nullptr);
  EXPECT_EQ(r.layout->osts()[0], 13 % 6);
}

TEST_F(MdtFixture, CreateOfExistingPathReturnsSameFile) {
  auto mdt = make();
  MetaResult r1, r2;
  mdt->create("/dup", 1, -1, [&](const MetaResult& r) { r1 = r; });
  s.run_all();
  mdt->create("/dup", 1, -1, [&](const MetaResult& r) { r2 = r; });
  s.run_all();
  EXPECT_EQ(r1.file, r2.file);
}

TEST_F(MdtFixture, OpenAndStatFindCreatedFile) {
  auto mdt = make();
  MetaResult created, opened, statted;
  mdt->create("/f", 1, -1, [&](const MetaResult& r) { created = r; });
  s.run_all();
  mdt->note_size(created.file, 12345);
  mdt->open("/f", [&](const MetaResult& r) { opened = r; });
  mdt->stat("/f", [&](const MetaResult& r) { statted = r; });
  s.run_all();
  EXPECT_TRUE(opened.ok);
  EXPECT_EQ(opened.file, created.file);
  EXPECT_EQ(opened.size, 12345);
  EXPECT_TRUE(statted.ok);
  EXPECT_EQ(statted.size, 12345);
}

TEST_F(MdtFixture, OpenMissingFails) {
  auto mdt = make();
  MetaResult r;
  r.ok = true;
  mdt->open("/nope", [&](const MetaResult& x) { r = x; });
  s.run_all();
  EXPECT_FALSE(r.ok);
}

TEST_F(MdtFixture, StatOfKnownDirSucceeds) {
  auto mdt = make();
  MetaResult mk, st;
  mdt->mkdir("/dir", [&](const MetaResult& r) { mk = r; });
  s.run_all();
  mdt->stat("/dir", [&](const MetaResult& r) { st = r; });
  s.run_all();
  EXPECT_TRUE(mk.ok);
  EXPECT_TRUE(st.ok);
}

TEST_F(MdtFixture, UnlinkRemovesFile) {
  auto mdt = make();
  mdt->create("/gone", 1, -1, [](const MetaResult&) {});
  s.run_all();
  MetaResult un, reopened;
  mdt->unlink("/gone", [&](const MetaResult& r) { un = r; });
  s.run_all();
  mdt->open("/gone", [&](const MetaResult& r) { reopened = r; });
  s.run_all();
  EXPECT_TRUE(un.ok);
  EXPECT_FALSE(reopened.ok);
  EXPECT_EQ(mdt->files(), 0u);
}

TEST_F(MdtFixture, RecreateAfterUnlinkGetsFreshId) {
  auto mdt = make();
  MetaResult first, second, other;
  mdt->create("/again", 1, -1, [&](const MetaResult& r) { first = r; });
  mdt->create("/other", 1, -1, [&](const MetaResult& r) { other = r; });
  s.run_all();
  mdt->unlink("/again", [](const MetaResult&) {});
  s.run_all();
  mdt->create("/again", 1, -1, [&](const MetaResult& r) { second = r; });
  s.run_all();
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  // Ids are never reused: the re-created file is a new inode past every
  // id handed out so far.
  EXPECT_NE(second.file, first.file);
  EXPECT_GT(second.file, other.file);
}

TEST_F(MdtFixture, NoteSizeAfterUnlinkIsANoOp) {
  auto mdt = make();
  MetaResult first, second, statted;
  mdt->create("/sized", 1, -1, [&](const MetaResult& r) { first = r; });
  s.run_all();
  mdt->unlink("/sized", [](const MetaResult&) {});
  s.run_all();
  mdt->note_size(first.file, 1 << 20);  // the write raced the unlink
  mdt->note_size(first.file + 1000, 1 << 20);  // never handed out
  mdt->note_size(kInvalidFile, 1 << 20);
  mdt->create("/sized", 1, -1, [&](const MetaResult& r) { second = r; });
  s.run_all();
  mdt->stat("/sized", [&](const MetaResult& r) { statted = r; });
  s.run_all();
  EXPECT_EQ(second.size, 0);
  ASSERT_TRUE(statted.ok);
  EXPECT_EQ(statted.file, second.file);
  EXPECT_EQ(statted.size, 0);
  // The live inode still takes size updates.
  mdt->note_size(second.file, 4096);
  mdt->stat("/sized", [&](const MetaResult& r) { statted = r; });
  s.run_all();
  EXPECT_EQ(statted.size, 4096);
}

TEST_F(MdtFixture, ModifyingOpsWaitForJournalCommit) {
  mp.commit_interval = 10 * sim::kMillisecond;
  auto mdt = make();
  sim::SimTime create_done = 0, stat_done = 0;
  mdt->create("/j", 1, -1, [&](const MetaResult&) { create_done = s.now(); });
  mdt->stat("/", [&](const MetaResult&) { stat_done = s.now(); });
  s.run_all();
  // The stat returns in microseconds; the create waits ~commit_interval.
  EXPECT_LT(sim::to_millis(stat_done), 2.0);
  EXPECT_GE(sim::to_millis(create_done), 9.0);
}

TEST_F(MdtFixture, GroupCommitBatchesManyCreates) {
  auto mdt = make();
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    mdt->create("/batch/f" + std::to_string(i), 1, -1,
                [&](const MetaResult&) { ++done; });
  }
  s.run_all();
  EXPECT_EQ(done, 100);
  const MdtCounters c = mdt->counters();
  EXPECT_EQ(c.modifying_ops, 100);
  // Group commit: far fewer journal commits than creates.
  EXPECT_LT(c.commits, 40);
  EXPECT_GT(c.commits, 0);
}

TEST_F(MdtFixture, BatchLimitForcesEarlyCommit) {
  mp.commit_interval = 10 * sim::kSecond;  // cadence effectively off
  mp.commit_batch_limit = 8;
  auto mdt = make();
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    mdt->create("/b/f" + std::to_string(i), 1, -1, [&](const MetaResult&) { ++done; });
  }
  s.run_until(sim::kSecond);
  EXPECT_EQ(done, 8);  // batch-full commit, not the 10 s cadence
}

TEST_F(MdtFixture, CountersTrackQueueAndOps) {
  auto mdt = make();
  for (int i = 0; i < 10; ++i) {
    mdt->stat("/", [](const MetaResult&) {});
  }
  s.run_all();
  const MdtCounters c = mdt->counters();
  EXPECT_EQ(c.queued_requests, 10);
  EXPECT_EQ(c.ops_completed, 10);
  EXPECT_EQ(c.modifying_ops, 0);
}

TEST_F(MdtFixture, ServiceConcurrencyBoundsParallelism) {
  mp.service_threads = 1;
  mp.cpu_stat = sim::kMillisecond;
  mp.attr_cache_miss = 0.0;
  auto mdt = make();
  std::vector<sim::SimTime> done;
  for (int i = 0; i < 4; ++i) {
    mdt->stat("/", [&](const MetaResult&) { done.push_back(s.now()); });
  }
  s.run_all();
  ASSERT_EQ(done.size(), 4u);
  // Single thread at 1 ms per op: completions ~1 ms apart.
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_NEAR(sim::to_millis(done[i] - done[i - 1]), 1.0, 0.2);
  }
}

TEST_F(MdtFixture, SharedDirectoryContentionCostsMore) {
  mp.service_threads = 2;
  mp.dirlock_penalty = 500 * sim::kMicrosecond;
  auto shared = make();
  sim::SimTime t_shared, t_private;
  {
    int pending = 64;
    for (int i = 0; i < 64; ++i) {
      shared->create("/same/f" + std::to_string(i), 1, -1,
                     [&](const MetaResult&) { --pending; });
    }
    s.run_all();
    EXPECT_EQ(pending, 0);
    t_shared = s.now();
  }
  sim::Simulation s2;
  MdtServer priv(s2, mp, dp, 1, 6, 1 << 20);
  {
    for (int i = 0; i < 64; ++i) {
      priv.create("/d" + std::to_string(i) + "/f", 1, -1, [](const MetaResult&) {});
    }
    s2.run_all();
    t_private = s2.now();
  }
  EXPECT_GT(t_shared, t_private);
}

}  // namespace
}  // namespace qif::pfs
