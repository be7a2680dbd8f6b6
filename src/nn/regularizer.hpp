// Weight regularizers: standard L2 (Eq. (2)) and the paper's two-segment
// skewed regularizer (Eqs. (8)-(10), Fig. 7).
//
// The skewed regularizer is the software half of the counter-aging
// framework: it penalizes weights on the left of a per-layer reference
// weight omega_i with lambda1 and on the right with lambda2 (lambda1 >=
// lambda2), which concentrates the trained weights just right of omega_i.
// Small weights map to small conductances -> large resistances -> small
// programming currents -> slower aging.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "nn/update.hpp"
#include "tensor/tensor.hpp"

namespace xbarlife::nn {

class Regularizer {
 public:
  virtual ~Regularizer() = default;

  /// This regularizer's rule for weights `w` of layer `layer_index` at
  /// this step (omega resolved once), as the fused training step applies
  /// it (nn/update.hpp).
  virtual RegularizerTerm term(const Tensor& w,
                               std::size_t layer_index) const = 0;

  /// Penalty value contributed by layer `layer_index` with weights `w`.
  double penalty(const Tensor& w, std::size_t layer_index) const;
};

/// Classic L2: lambda * ||W||^2.
class L2Regularizer final : public Regularizer {
 public:
  explicit L2Regularizer(double lambda);
  RegularizerTerm term(const Tensor& w,
                       std::size_t layer_index) const override;
  double lambda() const { return lambda_; }

 private:
  double lambda_;
};

/// Two-segment skewed regularizer around per-layer reference weight omega_i.
///
///   R1(W) = lambda1 * sum (w - omega_i)^2   for w <  omega_i
///   R2(W) = lambda2 * sum (w - omega_i)^2   for w >= omega_i
///
/// omega_i defaults to omega_factor * stddev(W_i) (the paper sets the
/// reference weight to the layer's standard deviation times a constant;
/// the mean of the trained quasi-normal distribution is close to zero).
/// Freeze omegas once (e.g. after a warmup epoch) via freeze_omegas() so
/// the reference points stop tracking the shrinking distribution.
class SkewedL2Regularizer final : public Regularizer {
 public:
  SkewedL2Regularizer(double lambda1, double lambda2, double omega_factor);

  RegularizerTerm term(const Tensor& w,
                       std::size_t layer_index) const override;

  /// Reference weight used for `w` at `layer_index`: the frozen value when
  /// set, otherwise omega_factor * stddev(w).
  double omega(const Tensor& w, std::size_t layer_index) const;

  /// Pins omega for layer `layer_index` to `value`.
  void freeze_omega(std::size_t layer_index, double value);

  /// Computes and pins omegas for each weight tensor in `weights`
  /// (index i -> layer_index i).
  void freeze_omegas(const std::vector<const Tensor*>& weights);

  double lambda1() const { return lambda1_; }
  double lambda2() const { return lambda2_; }
  double omega_factor() const { return omega_factor_; }

  /// Frozen reference weights per layer index (unset entries still track
  /// the live distribution). Exposed for checkpointing.
  const std::vector<std::optional<double>>& frozen_omegas() const {
    return frozen_omegas_;
  }

 private:
  double lambda1_;
  double lambda2_;
  double omega_factor_;
  std::vector<std::optional<double>> frozen_omegas_;
};

using RegularizerPtr = std::shared_ptr<Regularizer>;

}  // namespace xbarlife::nn
