// The training step's per-element rule: regularizer gradient, momentum
// SGD and the penalty sums, fused into one pass over each parameter
// tensor (Network::train_batch), and the same rule behind
// Regularizer::penalty and SgdOptimizer::step.
//
// Bits: each element's float operations keep the order of the separate
// passes this replaced (g += reg'(w), then v = mu*v - lr*g, then w += v)
// and are never contracted into FMAs (update.cpp builds with
// -ffp-contract=off). The penalty's double sums run sequentially in
// element order; each element adds its square to one side's sum and +0.0
// to the other's, which is exact (neither sum is ever -0.0), so no branch
// depends on the data. See docs/kernels.md "Training step".
#pragma once

#include <span>

namespace xbarlife::nn {

/// The two sequential sums a regularizer's penalty is made of.
struct PenaltySums {
  double left = 0.0;
  double right = 0.0;
};

/// A regularizer resolved for one weight tensor at one step (see
/// Regularizer::term): omega and both sides' scales are fixed, so every
/// element follows one rule.
struct RegularizerTerm {
  /// Gradient, in float: d = w - omega_f;
  /// g += (d < 0 ? grad_left : grad_right) * d.
  float omega_f = 0.0f;
  float grad_left = 0.0f;
  float grad_right = 0.0f;
  /// Penalty, in double: e = double(w) - omega; e * e goes to the left
  /// sum when e < split and to the right sum otherwise (NaN included).
  double omega = 0.0;
  double split = 0.0;
  double lambda_left = 0.0;
  double lambda_right = 0.0;
  /// L2's one (right) sum is rounded to float before lambda scales it:
  /// the penalty it has always reported, lambda * ||W||^2 in float.
  bool float_sum = false;

  double penalty(const PenaltySums& sums) const;
};

/// One update of a parameter tensor: with a `term`, g += reg'(w) and the
/// penalty sums over the pre-update w; then v = mu*v - lr*g and w += v.
/// Returns the sums (both zero without a term). All spans have one size.
PenaltySums update_tensor(std::span<float> w, std::span<float> g,
                          std::span<float> v, float lr, float mu,
                          const RegularizerTerm* term);

/// The term's penalty sums over `w`, nothing updated.
PenaltySums penalty_sums(std::span<const float> w,
                         const RegularizerTerm& term);

}  // namespace xbarlife::nn
