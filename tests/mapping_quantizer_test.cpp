// Fixed-grid resistance quantizer tests (Figs. 3, 4, 8 semantics).
#include "mapping/quantizer.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife::mapping {
namespace {

constexpr ResistanceRange kFresh{1e4, 1e5};

TEST(Quantizer, FreshGridLevelsAreUniformInResistance) {
  ResistanceQuantizer q(kFresh, 10);
  EXPECT_EQ(q.levels(), 10u);
  EXPECT_DOUBLE_EQ(q.level_resistance(0), 1e4);
  EXPECT_DOUBLE_EQ(q.level_resistance(9), 1e5);
  EXPECT_DOUBLE_EQ(q.resistance_step(), 1e4);
  for (std::size_t k = 1; k < 10; ++k) {
    EXPECT_NEAR(q.level_resistance(k) - q.level_resistance(k - 1), 1e4,
                1e-6);
  }
}

TEST(Quantizer, ConductanceLevelsDenseNearGmin) {
  // Fig. 3(c): reciprocal of uniform resistance levels concentrates
  // levels at the low-conductance end.
  ResistanceQuantizer q(kFresh, 10);
  ASSERT_EQ(q.levels(), 10u);
  std::vector<double> g;  // ascending: the highest resistance first
  for (std::size_t k = q.levels(); k > 0; --k) {
    g.push_back(q.level_conductance(k - 1));
  }
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_GT(g[i], g[i - 1]);
  }
  const double low_gap = g[1] - g[0];
  const double high_gap = g[9] - g[8];
  EXPECT_GT(high_gap, 10.0 * low_gap);
}

TEST(Quantizer, TruncationKeepsFreshSpacing) {
  // Fig. 4/8: aging removes top levels; spacing never changes.
  ResistanceQuantizer full(kFresh, 10);
  ResistanceQuantizer cut(kFresh, 10, 5.5e4);
  EXPECT_EQ(cut.levels(), 5u);  // 10k, 20k, 30k, 40k, 50k
  EXPECT_DOUBLE_EQ(cut.resistance_step(), full.resistance_step());
  EXPECT_DOUBLE_EQ(cut.level_resistance(cut.levels() - 1), 5e4);
  EXPECT_DOUBLE_EQ(cut.range().r_hi, 5e4);
  EXPECT_DOUBLE_EQ(cut.range().r_lo, 1e4);
}

TEST(Quantizer, TruncationAtExactLevelKeepsIt) {
  ResistanceQuantizer cut(kFresh, 10, 6e4);
  EXPECT_EQ(cut.levels(), 6u);
  EXPECT_DOUBLE_EQ(cut.level_resistance(5), 6e4);
}

TEST(Quantizer, AtLeastTwoLevelsSurvive) {
  ResistanceQuantizer cut(kFresh, 10, 1.0);  // cut below r_lo
  EXPECT_EQ(cut.levels(), 2u);
}

TEST(Quantizer, CutAboveFreshIsClamped) {
  ResistanceQuantizer cut(kFresh, 10, 1e9);
  EXPECT_EQ(cut.levels(), 10u);
}

TEST(Quantizer, NearestLevelForResistance) {
  ResistanceQuantizer q(kFresh, 10);
  EXPECT_EQ(q.nearest_level_for_resistance(1e4), 0u);
  EXPECT_EQ(q.nearest_level_for_resistance(1e5), 9u);
  EXPECT_EQ(q.nearest_level_for_resistance(2.4e4), 1u);
  EXPECT_EQ(q.nearest_level_for_resistance(2.6e4), 2u);
  // Clamping outside the range.
  EXPECT_EQ(q.nearest_level_for_resistance(1.0), 0u);
  EXPECT_EQ(q.nearest_level_for_resistance(1e9), 9u);
}

TEST(Quantizer, NearestLevelForConductanceComparesInGSpace) {
  ResistanceQuantizer q(kFresh, 10);
  // Exactly at a level.
  EXPECT_EQ(q.nearest_level_for_conductance(1.0 / 1e4), 0u);
  EXPECT_EQ(q.nearest_level_for_conductance(1.0 / 1e5), 9u);
  // Between levels 0 (g=1e-4) and 1 (g=5e-5): the conductance midpoint is
  // 7.5e-5 (r = 13.33k), NOT the resistance midpoint 15k.
  EXPECT_EQ(q.nearest_level_for_conductance(8e-5), 0u);
  EXPECT_EQ(q.nearest_level_for_conductance(7e-5), 1u);
}

TEST(Quantizer, NearestLevelRoundtripOnEveryLevel) {
  ResistanceQuantizer q(kFresh, 32);
  for (std::size_t k = 0; k < q.levels(); ++k) {
    EXPECT_EQ(q.nearest_level_for_resistance(q.level_resistance(k)), k);
    EXPECT_EQ(q.nearest_level_for_conductance(q.level_conductance(k)), k);
  }
}

TEST(Quantizer, ExactLevelResistancesBracketCorrectly) {
  // Regression: the conductance lookup used to bracket with a plain float
  // truncation of (r - r_lo) / step; a quotient landing at k - 1e-16 for a
  // resistance exactly on level k shifted the bracket one level low. The
  // guarded floor must hit every exact level, including ranges whose step
  // is not representable exactly in binary.
  const ResistanceRange awkward{1e4 / 3.0, 1e5 / 3.0};
  for (std::size_t levels : {3u, 7u, 10u, 31u, 32u, 64u}) {
    ResistanceQuantizer q(awkward, levels);
    for (std::size_t k = 0; k < q.levels(); ++k) {
      const double r = q.level_resistance(k);
      EXPECT_EQ(q.nearest_level_for_conductance(1.0 / r), k)
          << "levels=" << levels << " k=" << k;
      EXPECT_EQ(q.nearest_level_for_resistance(r), k)
          << "levels=" << levels << " k=" << k;
    }
  }
}

TEST(Quantizer, ConductanceJustInsideRangeEdgesStaysInRange) {
  ResistanceQuantizer q(kFresh, 10);
  const double g_min = q.range().g_min();
  const double g_max = q.range().g_max();
  EXPECT_EQ(q.nearest_level_for_conductance(std::nextafter(g_min, 0.0)),
            q.levels() - 1);
  EXPECT_EQ(q.nearest_level_for_conductance(std::nextafter(g_max, 1.0)),
            0u);
}

TEST(Quantizer, TruncatedGridExactBoundaryLevel) {
  // The last usable level of a truncated grid is an exact-resistance
  // boundary case for the bracket's upper clamp.
  ResistanceQuantizer cut(kFresh, 10, 5.5e4);
  const std::size_t last = cut.levels() - 1;
  EXPECT_EQ(cut.nearest_level_for_conductance(
                cut.level_conductance(last)),
            last);
  EXPECT_EQ(cut.nearest_level_for_conductance(1e-9), last);  // clamp up
}

TEST(Quantizer, RejectsInvalidConstruction) {
  EXPECT_THROW(ResistanceQuantizer({1e5, 1e4}, 10), InvalidArgument);
  EXPECT_THROW(ResistanceQuantizer(kFresh, 1), InvalidArgument);
  EXPECT_THROW(ResistanceQuantizer(kFresh, 10, -5.0), InvalidArgument);
  ResistanceQuantizer q(kFresh, 4);
  EXPECT_THROW(q.level_resistance(4), InvalidArgument);
  EXPECT_THROW(q.nearest_level_for_conductance(0.0), InvalidArgument);
}

// Property: for any level count, quantizing any conductance in range picks
// the level with minimal |g - g_level|.
class QuantizerLevelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizerLevelSweep, NearestConductanceIsArgmin) {
  const std::size_t levels = GetParam();
  ResistanceQuantizer q(kFresh, levels);
  for (int i = 0; i <= 100; ++i) {
    const double g =
        kFresh.g_min() +
        (kFresh.g_max() - kFresh.g_min()) * static_cast<double>(i) / 100.0;
    const std::size_t picked = q.nearest_level_for_conductance(g);
    double best = 1e300;
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < q.levels(); ++k) {
      const double d = std::abs(g - q.level_conductance(k));
      if (d < best) {
        best = d;
        best_k = k;
      }
    }
    EXPECT_EQ(picked, best_k) << "levels=" << levels << " g=" << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerLevelSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 64, 128));

}  // namespace
}  // namespace xbarlife::mapping
