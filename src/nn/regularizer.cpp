#include "nn/regularizer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace xbarlife::nn {

L2Regularizer::L2Regularizer(double lambda) : lambda_(lambda) {
  XB_CHECK(lambda >= 0.0, "L2 lambda must be non-negative");
}

double L2Regularizer::penalty(const Tensor& w,
                              std::size_t /*layer_index*/) const {
  return lambda_ * static_cast<double>(w.squared_norm());
}

void L2Regularizer::add_gradient(const Tensor& w,
                                 std::size_t /*layer_index*/,
                                 Tensor& grad) const {
  XB_CHECK(grad.shape() == w.shape(), "regularizer gradient shape mismatch");
  const auto scale = static_cast<float>(2.0 * lambda_);
  const std::span<const float> wv = w.flat();
  const std::span<float> gv = grad.flat();
  for (std::size_t i = 0; i < wv.size(); ++i) {
    gv[i] += scale * wv[i];
  }
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

double SkewedL2Regularizer::penalty(const Tensor& w,
                                    std::size_t layer_index) const {
  const double om = omega(w, layer_index);
  double left = 0.0;
  double right = 0.0;
  for (const float x : w.flat()) {
    const double d = static_cast<double>(x) - om;
    if (d < 0.0) {
      left += d * d;
    } else {
      right += d * d;
    }
  }
  return lambda1_ * left + lambda2_ * right;
}

void SkewedL2Regularizer::add_gradient(const Tensor& w,
                                       std::size_t layer_index,
                                       Tensor& grad) const {
  XB_CHECK(grad.shape() == w.shape(), "regularizer gradient shape mismatch");
  const auto om = static_cast<float>(omega(w, layer_index));
  const auto s1 = static_cast<float>(2.0 * lambda1_);
  const auto s2 = static_cast<float>(2.0 * lambda2_);
  const std::span<const float> wv = w.flat();
  const std::span<float> gv = grad.flat();
  for (std::size_t i = 0; i < wv.size(); ++i) {
    const float d = wv[i] - om;
    gv[i] += (d < 0.0f ? s1 : s2) * d;
  }
}

}  // namespace xbarlife::nn
