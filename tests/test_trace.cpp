// Tests for the trace pipeline: records, logs, baseline/interference
// matching, and degradation labelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "qif/trace/dxt.hpp"
#include "qif/trace/labeler.hpp"
#include "qif/trace/matcher.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::trace {
namespace {

OpRecord make_op(std::int32_t job, pfs::Rank rank, std::int64_t index, sim::SimTime start,
                 sim::SimDuration dur, pfs::OpType type = pfs::OpType::kRead,
                 std::int64_t bytes = 4096) {
  OpRecord r;
  r.job = job;
  r.rank = rank;
  r.op_index = index;
  r.type = type;
  r.bytes = bytes;
  r.start = start;
  r.end = start + dur;
  return r;
}

TEST(TraceLog, RecordsAndObserver) {
  TraceLog log;
  int observed = 0;
  log.set_observer([&](const OpRecord&, TraceLog::Targets) { ++observed; });
  log.record(make_op(0, 0, 0, 0, 10));
  log.record(make_op(0, 0, 1, 10, 10));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(observed, 2);
}

TEST(TraceLog, SortedForJobFiltersAndOrders) {
  TraceLog log;
  log.record(make_op(1, 0, 5, 0, 1));
  log.record(make_op(0, 1, 0, 0, 1));
  log.record(make_op(0, 0, 1, 0, 1));
  log.record(make_op(0, 0, 0, 0, 1));
  const auto sorted = log.sorted_for_job(0);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].rank, 0);
  EXPECT_EQ(sorted[0].op_index, 0);
  EXPECT_EQ(sorted[1].op_index, 1);
  EXPECT_EQ(sorted[2].rank, 1);
}

/// The definition sorted_for_job must meet: the job's records, stable-
/// sorted by (rank, op_index).
std::vector<OpRecord> stable_reference(const TraceLog& log, std::int32_t job) {
  std::vector<OpRecord> out;
  for (const OpRecord& r : log.records()) {
    if (r.job == job) out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(), [](const OpRecord& a, const OpRecord& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.op_index < b.op_index;
  });
  return out;
}

void expect_same_records(const std::vector<OpRecord>& got, const std::vector<OpRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].job, want[i].job) << i;
    EXPECT_EQ(got[i].rank, want[i].rank) << i;
    EXPECT_EQ(got[i].op_index, want[i].op_index) << i;
    EXPECT_EQ(got[i].start, want[i].start) << i;  // tells equal keys apart
  }
}

TEST(TraceLog, SortedForJobEqualsStableSortReference) {
  std::mt19937_64 rng(7);
  // Each trace: 3 jobs x `ranks` ranks x 40 ops, `start` numbering the
  // records so equal (rank, op_index) keys stay distinguishable.
  const auto make_trace = [](std::vector<OpRecord> ops) {
    TraceLog log;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i].start = static_cast<sim::SimTime>(i);
      log.record(std::move(ops[i]));
    }
    return log;
  };
  for (const int ranks : {1, 4, 33}) {
    std::vector<OpRecord> ordered;
    for (std::int32_t job = 0; job < 3; ++job) {
      for (int r = 0; r < ranks; ++r) {
        for (int k = 0; k < 40; ++k) ordered.push_back(make_op(job, r, k, 0, 1));
      }
    }
    // Interleaved: ranks alternate, each rank's ops in order (what a
    // completion-ordered simulator log looks like).
    std::vector<OpRecord> interleaved;
    for (int k = 0; k < 40; ++k) {
      for (std::int32_t job = 0; job < 3; ++job) {
        for (int r = ranks - 1; r >= 0; --r) interleaved.push_back(make_op(job, r, k, 0, 1));
      }
    }
    std::vector<OpRecord> shuffled = ordered;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    // Duplicated keys and sparse/negative ranks exercise stability and the
    // non-dense fallback.
    std::vector<OpRecord> odd = shuffled;
    odd.push_back(make_op(0, 0, 3, 0, 1));
    odd.push_back(make_op(0, -5, 1, 0, 1));
    odd.push_back(make_op(0, 1 << 30, 0, 0, 1));
    odd.push_back(make_op(0, -5, 0, 0, 1));
    for (const auto* ops : {&ordered, &interleaved, &shuffled, &odd}) {
      const TraceLog log = make_trace(*ops);
      for (std::int32_t job = 0; job < 4; ++job) {
        SCOPED_TRACE("ranks " + std::to_string(ranks) + " job " + std::to_string(job));
        expect_same_records(log.sorted_for_job(job), stable_reference(log, job));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The row format: fixed-width rows whose targets and replay metadata live in
// the log's arenas.
// ---------------------------------------------------------------------------

using Ids = std::vector<std::int32_t>;

/// A hand-built log covering every shape a row can take: a create with a
/// layout request, a multi-target write, another job's mkdir, a faulted
/// read, a flush-on-close close (OST + MDT), a degenerate write with no
/// targets, and a stat repeating an earlier path.
TraceLog sample_log() {
  TraceLog log;
  const auto row = [](std::int32_t job, pfs::Rank rank, std::int64_t index, pfs::OpType type,
                      pfs::FileId file, std::int64_t offset, std::int64_t bytes,
                      sim::SimTime start, sim::SimTime end) {
    OpRecord r;
    r.job = job;
    r.rank = rank;
    r.op_index = index;
    r.type = type;
    r.file = file;
    r.offset = offset;
    r.bytes = bytes;
    r.start = start;
    r.end = end;
    return r;
  };
  log.record(row(0, 0, 0, pfs::OpType::kCreate, 17, 0, 0, 100, 250), Ids{kMdtTarget},
             "/ior/file_r0", 4, 2);
  log.record(row(0, 0, 1, pfs::OpType::kWrite, 17, 0, 3 << 20, 260, 900), Ids{0, 1, 2});
  log.record(row(1, 1, 0, pfs::OpType::kMkdir, pfs::kInvalidFile, 0, 0, 50, 300),
             Ids{kMdtTarget}, "/d1");
  OpRecord faulted = row(0, 1, 0, pfs::OpType::kRead, 17, 4096, 8192, 300, 700);
  faulted.retries = 2;
  faulted.timeouts = 3;
  faulted.failed = true;
  log.record(faulted, Ids{2});
  log.record(row(0, 0, 2, pfs::OpType::kClose, 17, 0, 0, 910, 1000), Ids{1, kMdtTarget});
  log.record(row(0, 0, 3, pfs::OpType::kWrite, pfs::kInvalidFile, 0, 0, 1000, 1001));
  log.record(row(0, 1, 1, pfs::OpType::kStat, 17, 0, 0, 705, 720), Ids{kMdtTarget},
             "/ior/file_r0");
  return log;
}

/// sample_log() as the DXT v2 writer of the vector/string record format
/// dumped it.
constexpr const char* kSampleDxt =
    "# DXT qif 2\n"
    "# job rank op_index type file offset bytes start_ns end_ns path stripes hint"
    " targets...\n"
    "0 0 0 create 17 0 0 100 250 /ior/file_r0 4 2 -1\n"
    "0 0 1 write 17 0 3145728 260 900 - 0 -1 0 1 2\n"
    "1 1 0 mkdir -1 0 0 50 300 /d1 0 -1 -1\n"
    "0 1 0 read 17 4096 8192 300 700 - 0 -1 2\n"
    "0 0 2 close 17 0 0 910 1000 - 0 -1 1 -1\n"
    "0 0 3 write -1 0 0 1000 1001 - 0 -1\n"
    "0 1 1 stat 17 0 0 705 720 /ior/file_r0 0 -1 -1\n";

std::string dump(const TraceLog& log) {
  std::ostringstream os;
  write_dxt(os, log);
  return os.str();
}

TEST(TraceRows, RowIsAFixedWidthTriviallyCopyableRecord) {
  static_assert(std::is_trivially_copyable_v<OpRecord>);
  static_assert(sizeof(OpRecord) <= 80);
  const OpRecord hand_built;  // resolves to nothing through any log
  const TraceLog log = sample_log();
  EXPECT_TRUE(log.targets(hand_built).empty());
  EXPECT_TRUE(log.path(hand_built).empty());
  EXPECT_EQ(log.meta(hand_built).stripes, 0);
  EXPECT_EQ(log.meta(hand_built).stripe_hint, -1);
}

TEST(TraceRows, ArenasResolveEveryRow) {
  const TraceLog log = sample_log();
  ASSERT_EQ(log.size(), 7u);
  const auto rows = log.records();
  EXPECT_TRUE(std::ranges::equal(log.targets(rows[0]), Ids{kMdtTarget}));
  EXPECT_EQ(log.path(rows[0]), "/ior/file_r0");
  EXPECT_EQ(log.meta(rows[0]).stripes, 4);
  EXPECT_EQ(log.meta(rows[0]).stripe_hint, 2);
  EXPECT_TRUE(std::ranges::equal(log.targets(rows[1]), Ids{0, 1, 2}));
  EXPECT_TRUE(log.path(rows[1]).empty());
  EXPECT_EQ(log.meta(rows[1]).stripe_hint, -1);
  EXPECT_EQ(log.path(rows[2]), "/d1");
  EXPECT_TRUE(rows[3].failed);
  EXPECT_TRUE(std::ranges::equal(log.targets(rows[4]), Ids{1, kMdtTarget}));
  EXPECT_TRUE(log.targets(rows[5]).empty());
  EXPECT_EQ(log.path(rows[6]), "/ior/file_r0");
}

TEST(TraceRows, DxtV2WriteReadWriteIsByteIdentical) {
  const TraceLog log = sample_log();
  const std::string first = dump(log);
  EXPECT_EQ(first, kSampleDxt);
  std::istringstream in(first);
  const TraceLog loaded = read_dxt(in);
  // The dump carries no fault outcome (retries/timeouts/failed), so the
  // text, not the fingerprint, is what must survive the round trip.
  EXPECT_EQ(dump(loaded), first);
}

TEST(TraceRows, DxtV1DumpStillReads) {
  std::istringstream in(
      "0 0 0 read 4096 8 1000 2000 1 2\n"
      "0 0 1 stat 0 0 2000 2100 -1\n");
  const TraceLog loaded = read_dxt(in);
  ASSERT_EQ(loaded.size(), 2u);
  const auto rows = loaded.records();
  EXPECT_EQ(rows[0].offset, 4096);
  EXPECT_EQ(rows[0].file, pfs::kInvalidFile);
  EXPECT_TRUE(std::ranges::equal(loaded.targets(rows[0]), Ids{1, 2}));
  EXPECT_TRUE(std::ranges::equal(loaded.targets(rows[1]), Ids{kMdtTarget}));
  EXPECT_TRUE(loaded.path(rows[1]).empty());  // v1 carries no paths
}

TEST(TraceRows, SortedCopiesResolveLikeTheOriginalRows) {
  const TraceLog log = sample_log();
  const auto sorted = log.sorted_for_job(0);
  ASSERT_EQ(sorted.size(), 6u);
  for (const OpRecord& copy : sorted) {
    const auto original = std::find_if(
        log.records().begin(), log.records().end(), [&](const OpRecord& r) {
          return r.job == copy.job && r.rank == copy.rank && r.op_index == copy.op_index;
        });
    ASSERT_NE(original, log.records().end());
    EXPECT_TRUE(std::ranges::equal(log.targets(copy), log.targets(*original)));
    EXPECT_EQ(log.path(copy), log.path(*original));
    EXPECT_EQ(log.meta(copy).stripes, log.meta(*original).stripes);
    EXPECT_EQ(log.meta(copy).stripe_hint, log.meta(*original).stripe_hint);
  }
  // A copy of the log resolves its own rows the same way.
  const TraceLog copied = log;
  EXPECT_EQ(dump(copied), dump(log));
}

TEST(TraceRows, ObserverSeesTheStoredTargetSpan) {
  TraceLog log;
  std::vector<Ids> seen;
  std::vector<const std::int32_t*> seen_at;
  log.set_observer([&](const OpRecord&, TraceLog::Targets targets) {
    seen.emplace_back(targets.begin(), targets.end());
    seen_at.push_back(targets.data());
  });
  log.reserve(8);  // the arena does not move while the rows are recorded
  log.record(make_op(0, 0, 0, 0, 10), Ids{4, 5});
  log.record(make_op(0, 0, 1, 10, 10), Ids{kMdtTarget});
  ASSERT_EQ(seen.size(), 2u);
  const auto rows = log.records();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::ranges::equal(log.targets(rows[i]), seen[i])) << i;
    EXPECT_EQ(log.targets(rows[i]).data(), seen_at[i]) << i;
  }
}

TEST(TraceRows, FingerprintMatchesTheVectorRecordAlgorithm) {
  // Computed by the fingerprint of the vector/string record format on the
  // same rows; the row/arena split must not move any pinned fingerprint.
  EXPECT_EQ(trace_fingerprint(sample_log()), 0xebce4e0c5fba37a8ull);
}

TEST(TraceRows, LogsSpanManyBlocksAndMoveWithoutCopying) {
  TraceLog log;
  constexpr int kRows = 10000;  // several row blocks
  for (int i = 0; i < kRows; ++i) {
    log.record(make_op(0, i % 3, i / 3, i, 1), Ids{i % 7});
  }
  const OpRecord* first = &log.records().front();
  TraceLog moved = std::move(log);
  EXPECT_TRUE(log.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_EQ(moved.size(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(&moved.records().front(), first);
  std::int64_t checked = 0;
  for (const OpRecord& r : moved.records()) {
    EXPECT_EQ(moved.targets(r).front(), static_cast<std::int32_t>(checked % 7));
    ++checked;
  }
  EXPECT_EQ(checked, kRows);
  EXPECT_EQ(moved.records()[kRows - 1].start, kRows - 1);
}

TEST(TraceMatcher, PairsByRankAndIndex) {
  TraceLog base, noisy;
  for (int i = 0; i < 5; ++i) {
    base.record(make_op(0, 0, i, i * 100, 10));
    noisy.record(make_op(0, 0, i, i * 300, 30));
  }
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  ASSERT_EQ(matched.size(), 5u);
  EXPECT_EQ(stats.matched, 5u);
  EXPECT_EQ(stats.unmatched_base, 0u);
  for (const auto& m : matched) {
    EXPECT_EQ(m.base.op_index, m.interference.op_index);
    EXPECT_EQ(m.interference.duration(), 3 * m.base.duration());
  }
}

TEST(TraceMatcher, TruncatedInterferenceRunCountsUnmatched) {
  TraceLog base, noisy;
  for (int i = 0; i < 10; ++i) base.record(make_op(0, 0, i, i * 100, 10));
  for (int i = 0; i < 4; ++i) noisy.record(make_op(0, 0, i, i * 100, 10));
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  EXPECT_EQ(matched.size(), 4u);
  EXPECT_EQ(stats.unmatched_base, 6u);
  EXPECT_EQ(stats.unmatched_interf, 0u);
}

TEST(TraceMatcher, TypeMismatchRejected) {
  TraceLog base, noisy;
  base.record(make_op(0, 0, 0, 0, 10, pfs::OpType::kRead));
  noisy.record(make_op(0, 0, 0, 0, 10, pfs::OpType::kWrite));
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  EXPECT_TRUE(matched.empty());
  EXPECT_EQ(stats.mismatched, 1u);
}

TEST(TraceMatcher, IgnoresOtherJobs) {
  TraceLog base, noisy;
  base.record(make_op(0, 0, 0, 0, 10));
  noisy.record(make_op(0, 0, 0, 0, 10));
  noisy.record(make_op(7, 0, 0, 0, 10));  // interference job's own ops
  EXPECT_EQ(TraceMatcher::match(base, noisy, 0).size(), 1u);
}

TEST(TraceMatcher, MultiRankMergePath) {
  TraceLog base, noisy;
  for (pfs::Rank r = 0; r < 4; ++r) {
    for (int i = 0; i < 3; ++i) {
      base.record(make_op(0, r, i, i, 5));
      if (!(r == 2 && i == 1)) noisy.record(make_op(0, r, i, i, 7));
    }
  }
  MatchStats stats;
  const auto matched = TraceMatcher::match(base, noisy, 0, &stats);
  EXPECT_EQ(matched.size(), 11u);
  EXPECT_EQ(stats.unmatched_base, 1u);
}

TEST(Labeler, ComputesAverageRatioPerWindow) {
  LabelerConfig cfg;
  cfg.window = 100;
  Labeler labeler(cfg);
  std::vector<MatchedOp> matched;
  // Window 0: ratios 2 and 4 -> level 3.0.
  matched.push_back({make_op(0, 0, 0, 0, 10), make_op(0, 0, 0, 10, 20)});
  matched.push_back({make_op(0, 0, 1, 20, 10), make_op(0, 0, 1, 50, 40)});
  // Window 2: ratio 1.
  matched.push_back({make_op(0, 0, 2, 40, 10), make_op(0, 0, 2, 250, 10)});
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].window_index, 0);
  EXPECT_DOUBLE_EQ(labels[0].degradation, 3.0);
  EXPECT_EQ(labels[0].label, 1);  // >= 2x
  EXPECT_EQ(labels[0].n_ops, 2u);
  EXPECT_EQ(labels[1].window_index, 2);
  EXPECT_DOUBLE_EQ(labels[1].degradation, 1.0);
  EXPECT_EQ(labels[1].label, 0);
}

TEST(Labeler, WindowAssignmentUsesInterferenceStartTime) {
  LabelerConfig cfg;
  cfg.window = 100;
  Labeler labeler(cfg);
  // Base op at t=0 but the interference run executed it at t=550.
  std::vector<MatchedOp> matched = {
      {make_op(0, 0, 0, 0, 10), make_op(0, 0, 0, 550, 10)}};
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].window_index, 5);
}

TEST(Labeler, MinOpsFilterDropsSparseWindows) {
  LabelerConfig cfg;
  cfg.window = 100;
  cfg.min_ops_per_window = 2;
  Labeler labeler(cfg);
  std::vector<MatchedOp> matched = {
      {make_op(0, 0, 0, 0, 10), make_op(0, 0, 0, 0, 10)},
      {make_op(0, 0, 1, 10, 10), make_op(0, 0, 1, 10, 10)},
      {make_op(0, 0, 2, 20, 10), make_op(0, 0, 2, 150, 10)},  // lone op
  };
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].window_index, 0);
}

TEST(Labeler, ZeroBaselineDurationClamped) {
  Labeler labeler(LabelerConfig{});
  std::vector<MatchedOp> matched = {
      {make_op(0, 0, 0, 0, 0), make_op(0, 0, 0, 0, 100)}};
  const auto labels = labeler.label(matched);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_DOUBLE_EQ(labels[0].degradation, 100.0);  // clamp base to 1 tick
}

struct BinCase {
  std::vector<double> thresholds;
  double degradation;
  int expected;
};

// Prints the case by value: without this gtest dumps the raw bytes of the
// struct (heap pointers included), and the CTest names built from it would
// change with every build.
void PrintTo(const BinCase& c, std::ostream* os) {
  *os << "thresholds {";
  for (std::size_t i = 0; i < c.thresholds.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << c.thresholds[i];
  }
  *os << "} degradation " << c.degradation << " bin " << c.expected;
}

class LabelerBinTest : public ::testing::TestWithParam<BinCase> {};

TEST_P(LabelerBinTest, BinOfMatchesThresholds) {
  const auto& [thresholds, degradation, expected] = GetParam();
  LabelerConfig cfg;
  cfg.bin_thresholds = thresholds;
  Labeler labeler(cfg);
  EXPECT_EQ(labeler.bin_of(degradation), expected);
  EXPECT_EQ(labeler.num_classes(), static_cast<int>(thresholds.size()) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Bins, LabelerBinTest,
    ::testing::Values(BinCase{{2.0}, 1.0, 0}, BinCase{{2.0}, 1.99, 0},
                      BinCase{{2.0}, 2.0, 1}, BinCase{{2.0}, 50.0, 1},
                      BinCase{{2.0, 5.0}, 1.2, 0}, BinCase{{2.0, 5.0}, 3.0, 1},
                      BinCase{{2.0, 5.0}, 5.0, 2}, BinCase{{2.0, 5.0}, 41.0, 2},
                      BinCase{{1.5, 3.0, 10.0}, 9.99, 2},
                      BinCase{{1.5, 3.0, 10.0}, 10.0, 3}));

}  // namespace
}  // namespace qif::trace
