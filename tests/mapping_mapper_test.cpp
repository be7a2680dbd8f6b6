// Mapper tests: Eq. (4) + quantization programming, effective-weight
// readback, write-verify skipping, the stuck-cell list, and the skewed-
// distribution quantization advantage the paper builds on.
#include "mapping/mapper.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/tensor_oracles.hpp"

namespace xbarlife::mapping {
namespace {

constexpr ResistanceRange kFresh{1e4, 1e5};

device::DeviceParams dev() { return device::DeviceParams{}; }

aging::AgingParams quiet_aging() {
  aging::AgingParams a;
  a.a_f = 0.0;  // disable aging where the test wants pure mapping effects
  a.a_g = 0.0;
  a.thermal_crosstalk = 0.0;
  return a;
}

Tensor random_weights(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{rows, cols});
  w.fill_gaussian(rng, 0.0f, 0.3f);
  return w;
}

/// The weights the crossbar holds under `plan`'s transfer, read back cell
/// by cell as program_weights reads its achieved values.
Tensor read_back(const xbar::Crossbar& xb, const MappingPlan& plan) {
  Tensor eff(Shape{xb.rows(), xb.cols()});
  for (std::size_t r = 0; r < xb.rows(); ++r) {
    for (std::size_t c = 0; c < xb.cols(); ++c) {
      eff.at(r, c) = static_cast<float>(
          plan.weight_of_resistance(xb.read_resistance(r, c)));
    }
  }
  return eff;
}

TEST(MappingPlan, TargetResistanceIsOnTheGrid) {
  Tensor w = random_weights(4, 4, 1);
  MappingPlan plan(weight_range_of(w), kFresh, 16);
  const auto& q = plan.quantizer();
  for (std::size_t i = 0; i < w.numel(); ++i) {
    const double r = plan.target_resistance(static_cast<double>(w[i]));
    const std::size_t level = q.nearest_level_for_conductance(1.0 / r);
    EXPECT_NEAR(q.level_resistance(level), r, 1e-9);
  }
}

TEST(MappingPlan, ExtremeWeightsHitRangeEnds) {
  MappingPlan plan({-1.0, 1.0}, kFresh, 16);
  // w_min -> g_min -> largest usable resistance.
  EXPECT_NEAR(plan.target_resistance(-1.0), 1e5, 1.0);
  EXPECT_NEAR(plan.target_resistance(1.0), 1e4, 1.0);
}

TEST(MappingPlan, WeightOfResistanceInverts) {
  MappingPlan plan({-1.0, 1.0}, kFresh, 32);
  for (double w : {-1.0, -0.4, 0.0, 0.8, 1.0}) {
    const double r = plan.target_resistance(w);
    // Inversion error is bounded by half the local level gap in weight
    // space; near g_max the conductance levels are sparse (Fig. 3(c)),
    // so the worst case is large even with 32 levels.
    EXPECT_NEAR(plan.weight_of_resistance(r), w, 0.26);
  }
}

TEST(ProgramWeights, ProgramsAllCellsOnFreshArray) {
  xbar::Crossbar xb(4, 4, dev(), quiet_aging());
  Tensor w = random_weights(4, 4, 2);
  MappingPlan plan(weight_range_of(w), kFresh, 32);
  const MappingReport report = program_weights(xb, w, plan);
  EXPECT_EQ(report.total_cells, 16u);
  EXPECT_GT(report.programmed_cells, 12u);  // HRS power-up may match a few
  EXPECT_EQ(report.clamped_cells, 0u);
  EXPECT_GT(report.mean_target_conductance, kFresh.g_min());
}

TEST(ProgramWeights, SecondPassSkipsEverything) {
  xbar::Crossbar xb(4, 4, dev(), quiet_aging());
  Tensor w = random_weights(4, 4, 3);
  MappingPlan plan(weight_range_of(w), kFresh, 32);
  program_weights(xb, w, plan);
  const auto pulses = xb.total_pulses();
  const MappingReport second = program_weights(xb, w, plan);
  EXPECT_EQ(second.programmed_cells, 0u);
  EXPECT_EQ(xb.total_pulses(), pulses);
}

TEST(ProgramWeights, ForceWriteProgramsEveryCell) {
  xbar::Crossbar xb(4, 4, dev(), quiet_aging());
  Tensor w = random_weights(4, 4, 3);
  MappingPlan plan(weight_range_of(w), kFresh, 32);
  program_weights(xb, w, plan);
  const MappingReport forced =
      program_weights(xb, w, plan, /*skip_unchanged=*/false);
  EXPECT_EQ(forced.programmed_cells, 16u);
}

TEST(ProgramWeights, EffectiveWeightsCloseToTargets) {
  xbar::Crossbar xb(6, 6, dev(), quiet_aging());
  Tensor w = random_weights(6, 6, 4);
  MappingPlan plan(weight_range_of(w), kFresh, 64);
  const MappingReport report = program_weights(xb, w, plan);
  Tensor eff = read_back(xb, plan);
  // RMSE from the report must match a direct computation and be small
  // for 64 levels.
  double sq = 0.0;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    sq += std::pow(static_cast<double>(eff[i] - w[i]), 2);
  }
  const double rmse = std::sqrt(sq / static_cast<double>(w.numel()));
  EXPECT_NEAR(report.quantization_rmse, rmse, 1e-6);
  const double span = weight_range_of(w).span();
  EXPECT_LT(rmse, span * 0.05);
}

TEST(ProgramWeights, MoreLevelsMeansLessQuantizationError) {
  Tensor w = random_weights(8, 8, 5);
  double prev_rmse = 1e9;
  for (std::size_t levels : {4u, 8u, 16u, 64u}) {
    xbar::Crossbar xb(8, 8, dev(), quiet_aging());
    MappingPlan plan(weight_range_of(w), kFresh, levels);
    const MappingReport report = program_weights(xb, w, plan);
    EXPECT_LT(report.quantization_rmse, prev_rmse);
    prev_rmse = report.quantization_rmse;
  }
}

TEST(ProgramWeights, SkewedWeightsQuantizeBetter) {
  // The paper's Fig. 6 argument: mass concentrated near w_min lands where
  // conductance levels are dense, so quantization error drops.
  Rng rng(6);
  Tensor normal(Shape{16, 16});
  normal.fill_gaussian(rng, 0.0f, 0.3f);
  Tensor skewed(Shape{16, 16});
  for (std::size_t i = 0; i < skewed.numel(); ++i) {
    // Lognormal-ish right tail anchored at the left edge.
    skewed[i] = -0.9f + 0.25f *
        std::exp(static_cast<float>(rng.gaussian(0.0, 0.7)));
  }
  // Force comparable ranges so only the *shape* differs.
  auto rmse_of = [&](const Tensor& w) {
    xbar::Crossbar xb(16, 16, dev(), quiet_aging());
    MappingPlan plan(weight_range_of(w), kFresh, 16);
    return program_weights(xb, w, plan).quantization_rmse /
           weight_range_of(w).span();
  };
  EXPECT_LT(rmse_of(skewed), rmse_of(normal));
}

TEST(ProgramWeights, StuckMapTracksClampedAndDeadCells) {
  device::DeviceParams p = dev();
  aging::AgingParams a;
  a.a_f = 2e8;  // ages fast but leaves a live (partial) window
  a.thermal_crosstalk = 0.0;
  xbar::Crossbar xb(2, 2, p, a);
  // Stress cell (0,0) so its window top collapses well below r_max while
  // the window itself stays alive.
  for (int i = 0; i < 200; ++i) {
    xb.program_cell(0, 0, p.r_min_fresh);
  }
  ASSERT_LT(xb.cell(0, 0).aged_window().r_max, 5e4);
  ASSERT_TRUE(xb.cell(0, 0).aged_window().usable());

  // Target all cells at the top of the range: (0,0) cannot reach it.
  Tensor w(Shape{2, 2}, -1.0f);
  w.at(1, 1) = 1.0f;  // keep a non-degenerate range
  MappingPlan plan(weight_range_of(w), kFresh, 16);
  std::vector<std::uint8_t> stuck(4, 0);
  std::vector<float> pinned(4, 0.0f);
  const MappingReport r1 =
      program_weights(xb, w, plan, /*skip_unchanged=*/true, &stuck,
                      &pinned);
  EXPECT_GE(r1.clamped_cells, 1u);
  EXPECT_EQ(stuck[0], kCellClamped);
  EXPECT_GT(pinned[0], 0.0f);  // best-achievable conductance pinned

  // Next pass without drift: the clamped cell sits at its pinned value,
  // so it must not be pulsed again.
  const auto pulses = xb.cell(0, 0).pulse_count();
  program_weights(xb, w, plan, /*skip_unchanged=*/true, &stuck, &pinned);
  EXPECT_EQ(xb.cell(0, 0).pulse_count(), pulses);

  // After material drift the controller restores the pinned value with a
  // best-effort write. (Drift downward: the collapsed window clamps any
  // upward drift back to the pinned edge by itself.)
  xb.drift_cell(0, 0, xb.cell(0, 0).resistance() * 0.3);
  program_weights(xb, w, plan, /*skip_unchanged=*/true, &stuck, &pinned);
  EXPECT_EQ(xb.cell(0, 0).pulse_count(), pulses + 1);

  // A fully collapsed window is retired as dead once a pulse stops moving
  // the cell, and is then never pulsed again.
  for (int i = 0; i < 4000; ++i) {
    xb.program_cell(0, 0, p.r_min_fresh);
  }
  std::fill(stuck.begin(), stuck.end(), 0);
  std::fill(pinned.begin(), pinned.end(), 0.0f);
  program_weights(xb, w, plan, /*skip_unchanged=*/true, &stuck, &pinned);
  xb.drift_cell(0, 0, xb.cell(0, 0).resistance() * 1.5);
  program_weights(xb, w, plan, /*skip_unchanged=*/true, &stuck, &pinned);
  if (stuck[0] == kCellDead) {
    const auto frozen = xb.cell(0, 0).pulse_count();
    xb.drift_cell(0, 0, xb.cell(0, 0).resistance() * 1.5);
    program_weights(xb, w, plan, /*skip_unchanged=*/true, &stuck, &pinned);
    EXPECT_EQ(xb.cell(0, 0).pulse_count(), frozen);
  }
}

TEST(ProgramWeights, RejectsShapeMismatch) {
  xbar::Crossbar xb(2, 2, dev(), quiet_aging());
  Tensor w = random_weights(3, 2, 7);
  MappingPlan plan(weight_range_of(w), kFresh, 8);
  EXPECT_THROW(program_weights(xb, w, plan), InvalidArgument);
  std::vector<std::uint8_t> wrong_stuck(3, 0);
  Tensor w2 = random_weights(2, 2, 8);
  MappingPlan plan2(weight_range_of(w2), kFresh, 8);
  EXPECT_THROW(program_weights(xb, w2, plan2, true, &wrong_stuck),
               InvalidArgument);
}

TEST(PredictEffectiveWeights, MatchesProgrammingOutcome) {
  xbar::Crossbar xb(5, 5, dev(), quiet_aging());
  Tensor w = random_weights(5, 5, 9);
  MappingPlan plan(weight_range_of(w), kFresh, 32);
  auto fresh_window = [](std::size_t, std::size_t) {
    return aging::AgedWindow{1e4, 1e5};
  };
  Tensor predicted = predict_effective_weights(w, plan, fresh_window);
  program_weights(xb, w, plan);
  Tensor actual = read_back(xb, plan);
  EXPECT_TRUE(allclose(predicted, actual, 1e-4f));
}

TEST(PredictEffectiveWeights, ClampsByProvidedWindows) {
  Tensor w(Shape{1, 2}, std::vector<float>{-1.0f, 1.0f});
  MappingPlan plan(weight_range_of(w), kFresh, 16);
  // Window collapsed to [1e4, 2e4]: the w_min cell (target 1e5) clamps to
  // 2e4, which reads back as a much larger weight.
  auto tight = [](std::size_t, std::size_t) {
    return aging::AgedWindow{1e4, 2e4};
  };
  Tensor eff = predict_effective_weights(w, plan, tight);
  EXPECT_GT(eff.at(0, 0), -0.2f);
  EXPECT_NEAR(eff.at(0, 1), 1.0f, 0.1f);
}

}  // namespace
}  // namespace xbarlife::mapping
