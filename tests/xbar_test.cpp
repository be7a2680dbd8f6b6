#include "xbar/crossbar.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife::xbar {
namespace {

device::DeviceParams dev() { return device::DeviceParams{}; }
aging::AgingParams ag() { return aging::AgingParams{}; }

TEST(Crossbar, ConstructionAndFreshState) {
  Crossbar xb(4, 3, dev(), ag());
  EXPECT_EQ(xb.rows(), 4u);
  EXPECT_EQ(xb.cols(), 3u);
  EXPECT_EQ(xb.total_pulses(), 0u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(xb.cell(r, c).resistance(), dev().r_max_fresh);
    }
  }
}

TEST(Crossbar, ProgramCellUpdatesStateAndCounters) {
  Crossbar xb(3, 3, dev(), ag());
  const double achieved = xb.program_cell(1, 2, 5e4);
  EXPECT_DOUBLE_EQ(achieved, 5e4);
  EXPECT_DOUBLE_EQ(xb.cell(1, 2).resistance(), 5e4);
  EXPECT_EQ(xb.total_pulses(), 1u);
}

TEST(Crossbar, TrackerSeesRepresentativePulses) {
  Crossbar xb(3, 3, dev(), ag());
  xb.program_cell(1, 1, 5e4);  // representative
  xb.program_cell(0, 0, 5e4);  // untraced
  EXPECT_GT(xb.tracker().stress_estimate(1, 1), 0.0);
  EXPECT_EQ(xb.tracker().pulse_estimate(1, 1), 1u);
}

TEST(Crossbar, AmbientStressSharedAcrossCells) {
  aging::AgingParams a = ag();
  a.thermal_crosstalk = 0.1;  // exaggerated for visibility
  Crossbar xb(3, 3, dev(), a);
  xb.program_cell(0, 0, dev().r_min_fresh);
  EXPECT_GT(xb.ambient_stress(), 0.0);
  // An untouched cell feels the ambient stress.
  EXPECT_GT(xb.cell(2, 2).stress(), 0.0);
  EXPECT_DOUBLE_EQ(xb.cell(2, 2).own_stress(), 0.0);
}

TEST(Crossbar, TrackerEstimateMatchesCellTruthUnderCrosstalk) {
  aging::AgingParams a = ag();
  a.thermal_crosstalk = 0.05;  // exaggerated for visibility
  Crossbar xb(3, 3, dev(), a);
  // Known pattern: many pulses on the representative (1, 1), a few on an
  // untraced neighbour.
  for (int i = 0; i < 50; ++i) {
    xb.program_cell(1, 1, dev().r_min_fresh);
  }
  for (int i = 0; i < 20; ++i) {
    xb.program_cell(0, 0, dev().r_min_fresh);
  }
  // The representative's pulses are fully traced, so the tracker estimate
  // must equal the cell's effective stress exactly: own stress plus the
  // ambient pool minus its own exported crosstalk share. Before the
  // self-share fix the estimate (and the truth) both over-counted by
  // crosstalk * own_stress.
  EXPECT_DOUBLE_EQ(xb.tracker().stress_estimate(1, 1),
                   xb.cell(1, 1).stress());
  // Ground truth decomposition for a pulsed cell.
  const auto& rep = xb.cell(1, 1);
  EXPECT_NEAR(rep.stress(),
              rep.own_stress() +
                  (xb.ambient_stress() -
                   a.thermal_crosstalk * rep.own_stress()),
              1e-15);
  // An idle cell feels the full ambient pool.
  const auto& idle = xb.cell(2, 2);
  EXPECT_DOUBLE_EQ(idle.own_stress(), 0.0);
  EXPECT_DOUBLE_EQ(idle.stress(), xb.ambient_stress());
}

TEST(Crossbar, AgingStatsAggregate) {
  aging::AgingParams a = ag();
  a.thermal_crosstalk = 0.0;
  Crossbar xb(3, 3, dev(), a);
  for (int i = 0; i < 100; ++i) {
    xb.program_cell(0, 0, dev().r_min_fresh);
  }
  const CrossbarAgingStats s = xb.aging_stats();
  EXPECT_EQ(s.total_pulses, 100u);
  EXPECT_GT(s.max_stress, 0.0);
  EXPECT_GT(s.mean_stress, 0.0);
  EXPECT_LT(s.mean_stress, s.max_stress);
  EXPECT_LT(s.min_aged_r_max, dev().r_max_fresh);
  EXPECT_LE(static_cast<double>(s.min_usable_levels),
            s.mean_usable_levels);
}

TEST(Crossbar, DriftCellDoesNotPulse) {
  Crossbar xb(2, 2, dev(), ag());
  xb.drift_cell(0, 0, 3e4);
  EXPECT_DOUBLE_EQ(xb.cell(0, 0).resistance(), 3e4);
  EXPECT_EQ(xb.total_pulses(), 0u);
}

TEST(Crossbar, RejectsOutOfRangeAccess) {
  Crossbar xb(2, 2, dev(), ag());
  EXPECT_THROW(xb.cell(2, 0), InvalidArgument);
  EXPECT_THROW(xb.program_cell(0, 2, 5e4), InvalidArgument);
  EXPECT_THROW(Crossbar(0, 2, dev(), ag()), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife::xbar
