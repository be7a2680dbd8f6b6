#include "mapping/linear_map.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace xbarlife::mapping {

WeightRange weight_range_of(const Tensor& weights) {
  XB_CHECK(weights.numel() > 0, "weight range of empty tensor");
  WeightRange r;
  r.w_min = static_cast<double>(weights.min());
  r.w_max = static_cast<double>(weights.max());
  return r;
}

LinearMap::LinearMap(WeightRange w, double g_min, double g_max)
    : w_(w), g_min_(g_min), g_max_(g_max) {
  XB_CHECK(g_min > 0.0, "g_min must be positive");
  XB_CHECK(g_max > g_min, "need g_max > g_min");
  XB_CHECK(w.w_max >= w.w_min, "need w_max >= w_min");
  if (w_.span() > 0.0) {
    scale_ = (g_max_ - g_min_) / w_.span();
    inv_scale_ = 1.0 / scale_;
  } else {
    scale_ = 0.0;
    inv_scale_ = 0.0;
  }
}

double LinearMap::weight_to_conductance(double weight) const {
  const double clamped = std::clamp(weight, w_.w_min, w_.w_max);
  return scale_ * (clamped - w_.w_min) + g_min_;
}

}  // namespace xbarlife::mapping
