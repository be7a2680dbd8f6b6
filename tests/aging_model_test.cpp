// Tests of the Arrhenius aging functions (Eqs. (6)-(7), Fig. 4).
#include "aging/aging_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace xbarlife::aging {
namespace {

/// Stress values from 0 through a dense log-spaced sweep (1e-12 .. 1e-1 s)
/// that carries both default-parameter bounds of a 10k-100k window down to
/// the resistance floor.
std::vector<double> stress_sweep() {
  std::vector<double> out{0.0};
  constexpr int kPoints = 4000;
  for (int i = 0; i <= kPoints; ++i) {
    out.push_back(std::pow(10.0, -12.0 + 11.0 * i / kPoints));
  }
  return out;
}

TEST(AgingParams, Validation) {
  AgingParams p;
  EXPECT_NO_THROW(p.validate());
  p.activation_energy_ev = 0.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = AgingParams{};
  p.m_f = 0.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = AgingParams{};
  p.thermal_crosstalk = 1.5;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(AgingModel, StressZeroForZeroWidthPulse) {
  AgingModel model({});
  EXPECT_DOUBLE_EQ(model.stress_increment(0.0, 300.0, 1e-5), 0.0);
}

TEST(AgingModel, StressIncreasesWithTemperature) {
  AgingModel model({});
  const double cold = model.stress_increment(1e-7, 280.0, 4e-5);
  const double ref = model.stress_increment(1e-7, 300.0, 4e-5);
  const double hot = model.stress_increment(1e-7, 350.0, 4e-5);
  EXPECT_LT(cold, ref);
  EXPECT_LT(ref, hot);
}

TEST(AgingModel, StressAtReferenceConditionsEqualsPulseWidth) {
  AgingParams p;
  AgingModel model(p);
  const double ds = model.stress_increment(1e-7, p.reference_temp_k,
                                           p.reference_current_a);
  EXPECT_NEAR(ds, 1e-7, 1e-12);
}

TEST(AgingModel, StressScalesWithCurrentPower) {
  AgingParams p;
  p.current_exponent = 2.0;
  AgingModel model(p);
  const double base = model.stress_increment(1e-7, p.reference_temp_k,
                                             p.reference_current_a);
  const double doubled = model.stress_increment(
      1e-7, p.reference_temp_k, 2.0 * p.reference_current_a);
  EXPECT_NEAR(doubled / base, 4.0, 1e-9);
}

TEST(AgingModel, WindowShrinksMonotonicallyFromBothEnds) {
  const AgingParams p;
  AgingModel model(p);
  double prev_max = 1e5;
  double prev_min = 1e4;
  for (const double s : stress_sweep()) {
    const AgedWindow w = model.aged_window(1e4, 1e5, s);
    ASSERT_TRUE(std::isfinite(w.r_max) && std::isfinite(w.r_min)) << s;
    ASSERT_LE(w.r_max, prev_max) << s;
    ASSERT_LE(w.r_min, prev_min) << s;
    ASSERT_GE(w.r_min, p.r_floor) << s;
    ASSERT_GE(w.r_max, p.r_floor) << s;
    prev_max = w.r_max;
    prev_min = w.r_min;
  }
  // The sweep spans the whole aging range: both bounds end on the floor.
  EXPECT_DOUBLE_EQ(prev_max, p.r_floor);
  EXPECT_DOUBLE_EQ(prev_min, p.r_floor);
}

TEST(AgingModel, UpperBoundDegradesFasterThanLower) {
  // Eq. (6) vs Eq. (7): a_f >> a_g, matching the paper's observation that
  // original lower bounds remain inside the aged range.
  AgingModel model({});
  const AgedWindow w = model.aged_window(1e4, 1e5, 1e-5);
  EXPECT_LT(1e5 - w.r_max, 1e5 - 1e4);  // not fully collapsed
  EXPECT_GT(1e5 - w.r_max, 10.0 * (1e4 - w.r_min));
}

TEST(AgingModel, FreshWindowAtZeroStress) {
  AgingModel model({});
  const AgedWindow w = model.aged_window(1e4, 1e5, 0.0);
  EXPECT_DOUBLE_EQ(w.r_min, 1e4);
  EXPECT_DOUBLE_EQ(w.r_max, 1e5);
  EXPECT_TRUE(w.usable());
}

TEST(AgingModel, FloorIsRespected) {
  AgingParams p;
  p.a_f = 1e12;
  AgingModel model(p);
  EXPECT_DOUBLE_EQ(model.aged_r_max(1e5, 1.0), p.r_floor);
  EXPECT_DOUBLE_EQ(model.aged_r_min(1e4, 1.0), p.r_floor);
}

TEST(AgingModel, UsableLevelsFig4Collapse) {
  // Fig. 4's story: 8 fresh levels collapse as stress accumulates, the
  // top levels disappearing first, until the window closes for good.
  AgingModel model({});
  EXPECT_EQ(model.usable_levels(1e4, 1e5, 8, 0.0), 8u);
  std::size_t prev = 8;
  bool closed = false;
  for (const double s : stress_sweep()) {
    const std::size_t now = model.usable_levels(1e4, 1e5, 8, s);
    ASSERT_LE(now, prev) << s;
    const AgedWindow w = model.aged_window(1e4, 1e5, s);
    closed = closed || w.r_max <= w.r_min;
    if (closed) {
      ASSERT_EQ(now, 0u) << s;
    }
    prev = now;
  }
  EXPECT_TRUE(closed);
}

TEST(AgingModel, UsableLevelsZeroWhenWindowDead) {
  AgingParams p;
  p.a_f = 1e12;
  p.a_g = 1e12;
  AgingModel model(p);
  // Both bounds at the floor: window span is zero -> no usable interval.
  EXPECT_EQ(model.usable_levels(1e4, 1e5, 8, 1.0), 0u);
}

TEST(AgingModel, RejectsInvalidQueries) {
  AgingModel model({});
  EXPECT_THROW(model.stress_increment(-1.0, 300.0, 1e-5), InvalidArgument);
  EXPECT_THROW(model.stress_increment(1e-7, -1.0, 1e-5), InvalidArgument);
  EXPECT_THROW(model.aged_r_max(1e5, -1.0), InvalidArgument);
  EXPECT_THROW(model.aged_window(1e5, 1e4, 0.0), InvalidArgument);
  EXPECT_THROW(model.usable_levels(1e4, 1e5, 1, 0.0), InvalidArgument);
}

// Eq. (5)'s acceleration factors never produce NaN, infinity or negative
// stress, from cryogenic to far-above-operating temperatures, at zero to
// ampere-scale currents and femtosecond to second-long pulses.
TEST(AgingModel, StressIncrementFiniteAndNonNegativeAtExtremes) {
  AgingModel model({});
  for (const double temp : {1e-3, 1.0, 4.2, 77.0, 300.0, 400.0, 1e3, 1e4}) {
    for (const double current : {0.0, 1e-12, 1e-6, 4e-5, 1e-2, 1.0}) {
      for (const double width : {0.0, 1e-15, 1e-9, 1e-7, 1e-3, 1.0}) {
        const double ds = model.stress_increment(width, temp, current);
        EXPECT_TRUE(std::isfinite(ds) && ds >= 0.0)
            << "T=" << temp << " I=" << current << " t=" << width
            << " -> " << ds;
      }
    }
  }
}

// Property sweep: for any temperature above reference and any current
// above reference, stress must exceed the pulse width; below both, it
// must be smaller.
class ArrheniusSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ArrheniusSweep, AccelerationOrdering) {
  const auto [temp, current_scale] = GetParam();
  AgingParams p;
  AgingModel model(p);
  const double ds = model.stress_increment(
      1e-7, temp, current_scale * p.reference_current_a);
  if (temp >= p.reference_temp_k && current_scale >= 1.0) {
    EXPECT_GE(ds, 1e-7 * 0.999);
  }
  if (temp <= p.reference_temp_k && current_scale <= 1.0) {
    EXPECT_LE(ds, 1e-7 * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, ArrheniusSweep,
    ::testing::Values(std::make_pair(300.0, 1.0), std::make_pair(320.0, 1.0),
                      std::make_pair(300.0, 2.0), std::make_pair(350.0, 4.0),
                      std::make_pair(280.0, 1.0), std::make_pair(300.0, 0.5),
                      std::make_pair(270.0, 0.25)));

}  // namespace
}  // namespace xbarlife::aging
