// Linear weight <-> conductance mapping (Eq. (4) of the paper):
//
//   g = (g_max - g_min) / (w_max - w_min) * (w - w_min) + g_min
//
// One common conductance range per crossbar keeps column currents linear in
// the weights, which is why the aging-aware mapper must pick a *common*
// resistance range rather than a per-device one.
#pragma once

#include <algorithm>

#include "tensor/tensor.hpp"

namespace xbarlife::mapping {

struct WeightRange {
  double w_min = 0.0;
  double w_max = 0.0;

  double span() const { return w_max - w_min; }
};

/// Min/max of a weight tensor. A constant tensor yields a degenerate range
/// which LinearMap handles by mapping everything to g_min.
WeightRange weight_range_of(const Tensor& weights);

class LinearMap {
 public:
  /// Maps [w.w_min, w.w_max] onto [g_min, g_max]; requires g_max > g_min.
  LinearMap(WeightRange w, double g_min, double g_max);

  double weight_to_conductance(double weight) const;
  double conductance_to_weight(double g) const {
    const double clamped = std::clamp(g, g_min_, g_max_);
    return inv_scale_ * (clamped - g_min_) + w_.w_min;
  }

  const WeightRange& weight_range() const { return w_; }
  double g_min() const { return g_min_; }
  double g_max() const { return g_max_; }

 private:
  WeightRange w_;
  double g_min_;
  double g_max_;
  double scale_;      // (g_max-g_min)/(w_max-w_min); 0 for degenerate range
  double inv_scale_;  // 1/scale_ or 0
};

}  // namespace xbarlife::mapping
