// Tests for the trace pipeline: records, logs, baseline/interference
// matching, and degradation labelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <vector>

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
  log.set_observer([&](const OpRecord&) { ++observed; });
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
