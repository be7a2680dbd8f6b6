#include "aging/tracker.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife::aging {
namespace {

TEST(Tracker, BlockGeometry) {
  RepresentativeTracker t(9, 9);
  EXPECT_EQ(t.block_rows(), 3u);
  EXPECT_EQ(t.block_cols(), 3u);
  // Centers of each full 3x3 block are representatives.
  EXPECT_TRUE(t.is_representative(1, 1));
  EXPECT_TRUE(t.is_representative(4, 4));
  EXPECT_TRUE(t.is_representative(7, 1));
  EXPECT_FALSE(t.is_representative(0, 0));
  EXPECT_FALSE(t.is_representative(2, 2));
}

TEST(Tracker, OneOfNineCoverage) {
  RepresentativeTracker t(9, 9);
  std::size_t reps = 0;
  for (std::size_t r = 0; r < 9; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      reps += t.is_representative(r, c) ? 1u : 0u;
    }
  }
  EXPECT_EQ(reps, 9u);  // exactly 1 of 9
}

TEST(Tracker, EveryCellHasARepresentative) {
  RepresentativeTracker t(10, 7);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      const auto [rr, rc] = t.representative_for(r, c);
      EXPECT_LT(rr, 10u);
      EXPECT_LT(rc, 7u);
      EXPECT_TRUE(t.is_representative(rr, rc));
      // Representative is in the same 3x3 block.
      EXPECT_EQ(rr / 3, r / 3);
      EXPECT_EQ(rc / 3, c / 3);
    }
  }
}

TEST(Tracker, EdgeBlocksClampRepresentative) {
  RepresentativeTracker t(4, 4);  // bottom/right blocks are partial
  const auto [rr, rc] = t.representative_for(3, 3);
  EXPECT_EQ(rr, 3u);
  EXPECT_EQ(rc, 3u);
  EXPECT_TRUE(t.is_representative(3, 3));
}

TEST(Tracker, RecordsOnlyRepresentativePulses) {
  RepresentativeTracker t(6, 6);
  t.record_pulse(0, 0, 1.0);  // untraced
  EXPECT_DOUBLE_EQ(t.stress_estimate(0, 0), 0.0);
  t.record_pulse(1, 1, 2.0);  // representative of block (0,0)
  EXPECT_DOUBLE_EQ(t.stress_estimate(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(t.stress_estimate(2, 2), 2.0);  // same block
  EXPECT_DOUBLE_EQ(t.stress_estimate(3, 3), 0.0);  // other block
}

TEST(Tracker, AmbientIsAlwaysAccumulated) {
  RepresentativeTracker t(6, 6);
  t.record_pulse(0, 0, 1.0, 0.5);  // untraced cell still heats the array
  EXPECT_DOUBLE_EQ(t.ambient_stress(), 0.5);
  EXPECT_DOUBLE_EQ(t.stress_estimate(0, 0), 0.5);
  t.record_pulse(1, 1, 2.0, 0.25);
  EXPECT_DOUBLE_EQ(t.ambient_stress(), 0.75);
  // The representative's own 0.25 export is excluded from its estimate:
  // its local heating is already inside the 2.0 of traced stress.
  EXPECT_DOUBLE_EQ(t.stress_estimate(1, 1), 2.0 + 0.5);
  // A different block has no traced stress and no self-share: it sees the
  // full ambient pool.
  EXPECT_DOUBLE_EQ(t.stress_estimate(4, 4), 0.75);
}

TEST(Tracker, RepresentativeSelfShareNotDoubleCounted) {
  RepresentativeTracker t(3, 3);
  // 10 pulses on the representative, each exporting 10% to the ambient
  // pool. Ground truth for the rep cell: own stress only (its crosstalk
  // export is its own heat, not extra damage).
  for (int i = 0; i < 10; ++i) {
    t.record_pulse(1, 1, 1.0, 0.1);
  }
  EXPECT_DOUBLE_EQ(t.ambient_stress(), 1.0);
  EXPECT_DOUBLE_EQ(t.stress_estimate(1, 1), 10.0);
}

TEST(Tracker, RepresentativeStressesSizeMatchesBlocks) {
  RepresentativeTracker t(10, 10);  // 4x4 blocks
  EXPECT_EQ(t.representative_stresses().size(), 16u);
}

TEST(Tracker, RejectsInvalidInput) {
  EXPECT_THROW(RepresentativeTracker(0, 5), InvalidArgument);
  RepresentativeTracker t(3, 3);
  EXPECT_THROW(t.record_pulse(5, 0, 1.0), InvalidArgument);
  EXPECT_THROW(t.record_pulse(1, 1, -1.0), InvalidArgument);
}

TEST(Tracker, SingleCellArray) {
  RepresentativeTracker t(1, 1);
  EXPECT_TRUE(t.is_representative(0, 0));
  t.record_pulse(0, 0, 3.0);
  EXPECT_DOUBLE_EQ(t.stress_estimate(0, 0), 3.0);
}

}  // namespace
}  // namespace xbarlife::aging
