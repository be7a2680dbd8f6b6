#include "nn/regularizer.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace xbarlife::nn {

double Regularizer::penalty(const Tensor& w, std::size_t layer_index) const {
  const RegularizerTerm t = term(w, layer_index);
  return t.penalty(penalty_sums(w.flat(), t));
}

L2Regularizer::L2Regularizer(double lambda) : lambda_(lambda) {
  XB_CHECK(lambda >= 0.0, "L2 lambda must be non-negative");
}

RegularizerTerm L2Regularizer::term(const Tensor& /*w*/,
                                    std::size_t /*layer_index*/) const {
  // omega = 0 on both sides with one sum: d = w - 0 is w itself, so the
  // gradient is 2 * lambda * w and the sum is ||W||^2.
  RegularizerTerm t;
  t.grad_left = static_cast<float>(2.0 * lambda_);
  t.grad_right = t.grad_left;
  t.split = -std::numeric_limits<double>::infinity();
  t.lambda_right = lambda_;
  t.float_sum = true;
  return t;
}

SkewedL2Regularizer::SkewedL2Regularizer(double lambda1, double lambda2,
                                         double omega_factor)
    : lambda1_(lambda1), lambda2_(lambda2), omega_factor_(omega_factor) {
  XB_CHECK(lambda1 >= 0.0 && lambda2 >= 0.0,
           "skewed lambdas must be non-negative");
  XB_CHECK(lambda1 >= lambda2,
           "skewed regularizer requires lambda1 >= lambda2 (left side of "
           "omega is penalized at least as hard)");
}

double SkewedL2Regularizer::omega(const Tensor& w,
                                  std::size_t layer_index) const {
  if (layer_index < frozen_omegas_.size() &&
      frozen_omegas_[layer_index].has_value()) {
    return *frozen_omegas_[layer_index];
  }
  RunningStats rs;
  for (const float x : w.flat()) {
    rs.add(static_cast<double>(x));
  }
  return omega_factor_ * rs.stddev();
}

void SkewedL2Regularizer::freeze_omega(std::size_t layer_index,
                                       double value) {
  if (layer_index >= frozen_omegas_.size()) {
    frozen_omegas_.resize(layer_index + 1);
  }
  frozen_omegas_[layer_index] = value;
}

void SkewedL2Regularizer::freeze_omegas(
    const std::vector<const Tensor*>& weights) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    XB_CHECK(weights[i] != nullptr, "null weight tensor");
    // Compute from the live distribution, then pin.
    const bool was_frozen =
        i < frozen_omegas_.size() && frozen_omegas_[i].has_value();
    if (was_frozen) {
      continue;
    }
    freeze_omega(i, omega(*weights[i], i));
  }
}

RegularizerTerm SkewedL2Regularizer::term(const Tensor& w,
                                          std::size_t layer_index) const {
  RegularizerTerm t;
  t.omega = omega(w, layer_index);
  t.omega_f = static_cast<float>(t.omega);
  t.grad_left = static_cast<float>(2.0 * lambda1_);
  t.grad_right = static_cast<float>(2.0 * lambda2_);
  t.lambda_left = lambda1_;
  t.lambda_right = lambda2_;
  return t;
}

}  // namespace xbarlife::nn
