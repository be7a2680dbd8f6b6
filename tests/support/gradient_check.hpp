// Numerical gradient checking for the NN substrate: the tests' oracle for
// every layer's analytic backward pass.
#pragma once

#include <cstdint>
#include <span>

#include "nn/network.hpp"

namespace xbarlife::nn {

struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  std::size_t checked = 0;
};

/// Compares analytic parameter gradients against central finite differences
/// of the data loss. Checks at most `max_per_param` scalars per parameter
/// tensor (strided to cover the tensor).
GradCheckResult check_gradients(Network& net, const Tensor& input,
                                std::span<const std::int32_t> labels,
                                double eps = 1e-3,
                                std::size_t max_per_param = 24);

}  // namespace xbarlife::nn
