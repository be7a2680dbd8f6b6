// Tests for the paper's Eqs. (2) and (8)-(10): classic L2 and the
// two-segment skewed regularizer.
#include "nn/regularizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace xbarlife::nn {
namespace {

/// grad += reg'(w) as the training step adds it: the regularizer's term
/// through update_tensor, with a zero-rate step that leaves w as it is.
void add_gradient(const Regularizer& reg, Tensor w, Tensor& grad) {
  const RegularizerTerm term = reg.term(w, 0);
  std::vector<float> velocity(w.numel());
  update_tensor(w.flat(), grad.flat(), velocity, 0.0f, 0.0f, &term);
}

TEST(L2, PenaltyIsLambdaTimesSquaredNorm) {
  L2Regularizer reg(0.5);
  Tensor w(Shape{3}, std::vector<float>{1.0f, 2.0f, -2.0f});
  EXPECT_NEAR(reg.penalty(w, 0), 0.5 * 9.0, 1e-6);
}

TEST(L2, GradientIsTwoLambdaW) {
  L2Regularizer reg(0.1);
  Tensor w(Shape{2}, std::vector<float>{3.0f, -4.0f});
  Tensor grad(Shape{2}, 1.0f);  // pre-existing gradient must be added to
  add_gradient(reg, w, grad);
  EXPECT_NEAR(grad[0], 1.0f + 2.0f * 0.1f * 3.0f, 1e-6f);
  EXPECT_NEAR(grad[1], 1.0f - 2.0f * 0.1f * 4.0f, 1e-6f);
}

TEST(L2, RejectsNegativeLambda) {
  EXPECT_THROW(L2Regularizer(-0.1), InvalidArgument);
}

TEST(SkewedL2, RequiresLambda1AtLeastLambda2) {
  EXPECT_NO_THROW(SkewedL2Regularizer(0.2, 0.1, -1.0));
  EXPECT_NO_THROW(SkewedL2Regularizer(0.1, 0.1, -1.0));
  EXPECT_THROW(SkewedL2Regularizer(0.1, 0.2, -1.0), InvalidArgument);
}

TEST(SkewedL2, OmegaTracksStddevTimesFactor) {
  SkewedL2Regularizer reg(0.2, 0.1, -1.5);
  Tensor w(Shape{4}, std::vector<float>{-1.0f, 1.0f, -1.0f, 1.0f});
  // stddev = 1, so omega = -1.5.
  EXPECT_NEAR(reg.omega(w, 0), -1.5, 1e-6);
}

TEST(SkewedL2, FrozenOmegaStopsTracking) {
  SkewedL2Regularizer reg(0.2, 0.1, -1.0);
  Tensor w(Shape{2}, std::vector<float>{-2.0f, 2.0f});
  reg.freeze_omega(0, -0.25);
  EXPECT_NEAR(reg.omega(w, 0), -0.25, 1e-12);
  // Other layers still track.
  EXPECT_NEAR(reg.omega(w, 1), -2.0, 1e-6);
}

TEST(SkewedL2, FreezeOmegasFromWeights) {
  SkewedL2Regularizer reg(0.2, 0.1, -1.0);
  Tensor w0(Shape{2}, std::vector<float>{-1.0f, 1.0f});  // sd 1
  Tensor w1(Shape{2}, std::vector<float>{-2.0f, 2.0f});  // sd 2
  reg.freeze_omegas({&w0, &w1});
  // Mutating the weights must not change the frozen omegas anymore.
  w0.fill(100.0f);
  w1.fill(100.0f);
  EXPECT_NEAR(reg.omega(w0, 0), -1.0, 1e-6);
  EXPECT_NEAR(reg.omega(w1, 1), -2.0, 1e-6);
}

TEST(SkewedL2, PenaltySplitsAtOmega) {
  SkewedL2Regularizer reg(2.0, 0.5, 0.0);
  reg.freeze_omega(0, 0.0);
  // w = -1 -> left segment: 2.0 * 1 ; w = 2 -> right: 0.5 * 4.
  Tensor w(Shape{2}, std::vector<float>{-1.0f, 2.0f});
  EXPECT_NEAR(reg.penalty(w, 0), 2.0 + 2.0, 1e-6);
}

TEST(SkewedL2, GradientMatchesNumericDerivative) {
  SkewedL2Regularizer reg(0.3, 0.05, 0.0);
  reg.freeze_omega(0, -0.2);
  Tensor w(Shape{5},
           std::vector<float>{-1.0f, -0.3f, -0.2f, 0.1f, 0.8f});
  Tensor grad(Shape{5}, 0.0f);
  add_gradient(reg, w, grad);
  const double eps = 1e-4;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    Tensor wp = w;
    Tensor wm = w;
    wp[i] += static_cast<float>(eps);
    wm[i] -= static_cast<float>(eps);
    const double numeric =
        (reg.penalty(wp, 0) - reg.penalty(wm, 0)) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-3) << "index " << i;
  }
}

TEST(SkewedL2, StrongLeftPenaltyPullsMinimumTowardOmega) {
  // Gradient descent on the penalty alone must push a left-side weight up
  // toward omega much harder than it pulls a right-side weight down.
  SkewedL2Regularizer reg(1.0, 0.01, 0.0);
  reg.freeze_omega(0, 0.0);
  Tensor w(Shape{2}, std::vector<float>{-0.5f, 0.5f});
  Tensor grad(Shape{2}, 0.0f);
  add_gradient(reg, w, grad);
  EXPECT_LT(grad[0], 0.0f);  // pushes -0.5 upward (descent: w -= grad)
  EXPECT_GT(grad[1], 0.0f);
  EXPECT_GT(std::fabs(grad[0]), 10.0f * std::fabs(grad[1]));
}

TEST(SkewedL2, GradientShapeMismatchThrows) {
  SkewedL2Regularizer reg(0.2, 0.1, -1.0);
  Tensor w(Shape{3});
  Tensor grad(Shape{2});
  EXPECT_THROW(add_gradient(reg, w, grad), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife::nn
