// Tests for striping layouts: offset mapping, coalescing, placement.
#include <gtest/gtest.h>

#include "qif/pfs/layout.hpp"

namespace qif::pfs {
namespace {

constexpr std::int64_t kStripe = 1 << 20;
constexpr std::int64_t kCap = 1ll << 40;

std::vector<Extent> map_of(const FileLayout& layout, std::int64_t offset, std::int64_t len) {
  std::vector<Extent> out;
  layout.map(offset, len, out);
  return out;
}

TEST(FileLayout, SingleStripeMapsContiguously) {
  FileLayout layout(1, {3}, kStripe, kCap);
  const auto extents = map_of(layout, 0, 10 << 20);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].ost, 3);
  EXPECT_EQ(extents[0].len, 10 << 20);
  EXPECT_EQ(extents[0].disk_offset, layout.object_base(0));
}

TEST(FileLayout, RoundRobinAcrossStripes) {
  FileLayout layout(2, {0, 1, 2}, kStripe, kCap);
  const auto extents = map_of(layout, 0, 3 * kStripe);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].ost, 0);
  EXPECT_EQ(extents[1].ost, 1);
  EXPECT_EQ(extents[2].ost, 2);
  for (const auto& e : extents) EXPECT_EQ(e.len, kStripe);
}

TEST(FileLayout, SecondStripeRowContinuesObjectSequentially) {
  FileLayout layout(3, {0, 1}, kStripe, kCap);
  const auto row0 = map_of(layout, 0, kStripe);
  const auto row1 = map_of(layout, 2 * kStripe, kStripe);  // second row, ost 0
  ASSERT_EQ(row0.size(), 1u);
  ASSERT_EQ(row1.size(), 1u);
  EXPECT_EQ(row0[0].ost, row1[0].ost);
  EXPECT_EQ(row1[0].disk_offset, row0[0].disk_offset + kStripe);
}

TEST(FileLayout, UnalignedRangeSplitsAtStripeBoundary) {
  FileLayout layout(4, {0, 1}, kStripe, kCap);
  const auto extents = map_of(layout, kStripe / 2, kStripe);
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].ost, 0);
  EXPECT_EQ(extents[0].len, kStripe / 2);
  EXPECT_EQ(extents[1].ost, 1);
  EXPECT_EQ(extents[1].len, kStripe / 2);
}

TEST(FileLayout, SubStripeReadStaysOnOneOst) {
  FileLayout layout(5, {0, 1, 2}, kStripe, kCap);
  const auto extents = map_of(layout, kStripe + 100, 1000);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].ost, 1);
  EXPECT_EQ(extents[0].len, 1000);
}

TEST(FileLayout, MapReplacesTheBufferAndKeepsItsCapacity) {
  FileLayout layout(8, {0, 1, 2}, kStripe, kCap);
  std::vector<Extent> buf;
  layout.map(0, 3 * kStripe, buf);
  ASSERT_EQ(buf.size(), 3u);
  const Extent* storage = buf.data();
  layout.map(kStripe + 100, 1000, buf);
  ASSERT_EQ(buf.size(), 1u);  // replaced, not appended
  EXPECT_EQ(buf[0].ost, 1);
  EXPECT_EQ(buf[0].len, 1000);
  EXPECT_EQ(buf.data(), storage);  // no reallocation for a smaller mapping
}

TEST(FileLayout, ObjectBasesAreMibAligned) {
  FileLayout layout(6, {0, 1, 2, 3}, kStripe, kCap);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(layout.object_base(i) % (1 << 20), 0);
    EXPECT_GE(layout.object_base(i), 0);
    EXPECT_LT(layout.object_base(i), kCap);
  }
}

TEST(FileLayout, DistinctFilesGetDistantObjects) {
  // Pseudo-random placement: different file ids land far apart on the same
  // OST with overwhelming probability.
  int far = 0;
  for (FileId f = 1; f <= 20; ++f) {
    FileLayout a(f, {0}, kStripe, kCap);
    FileLayout b(f + 1000, {0}, kStripe, kCap);
    if (std::abs(a.object_base(0) - b.object_base(0)) > (1ll << 30)) ++far;
  }
  EXPECT_GE(far, 15);
}

TEST(FileLayout, PlacementIsDeterministicPerFileId) {
  FileLayout a(42, {0, 1}, kStripe, kCap);
  FileLayout b(42, {0, 1}, kStripe, kCap);
  EXPECT_EQ(a.object_base(0), b.object_base(0));
  EXPECT_EQ(a.object_base(1), b.object_base(1));
}

struct MapCase {
  std::int64_t offset;
  std::int64_t len;
  int n_osts;
};

class LayoutPartitionTest : public ::testing::TestWithParam<MapCase> {};

// Property: map() partitions the byte range exactly — lengths sum to len,
// extents are in file order, and every extent lies inside its object.
TEST_P(LayoutPartitionTest, ExtentsPartitionRange) {
  const auto [offset, len, n_osts] = GetParam();
  std::vector<OstId> osts;
  for (int i = 0; i < n_osts; ++i) osts.push_back(static_cast<OstId>(i));
  FileLayout layout(7, osts, kStripe, kCap);
  const auto extents = map_of(layout, offset, len);
  std::int64_t total = 0;
  for (const auto& e : extents) {
    EXPECT_GT(e.len, 0);
    EXPECT_GE(e.ost, 0);
    EXPECT_LT(e.ost, n_osts);
    total += e.len;
  }
  EXPECT_EQ(total, len);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, LayoutPartitionTest,
    ::testing::Values(MapCase{0, 1, 1}, MapCase{0, 47008, 6}, MapCase{123, 4096, 3},
                      MapCase{kStripe - 1, 2, 2}, MapCase{0, 64 << 20, 6},
                      MapCase{7 * kStripe + 511, 3 * kStripe + 17, 4},
                      MapCase{1ll << 33, 10 << 20, 5}));

}  // namespace
}  // namespace qif::pfs
