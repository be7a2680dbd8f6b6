#include "nn/gradient_check.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife::nn {

GradCheckResult check_gradients(Network& net, const Tensor& input,
                                std::span<const std::int32_t> labels,
                                double eps, std::size_t max_per_param) {
  XB_CHECK(eps > 0.0, "gradient-check eps must be positive");
  net.compute_gradients(input, labels);
  // Copy analytic gradients before the probing passes overwrite them.
  std::vector<Tensor> analytic;
  auto params = net.params();
  analytic.reserve(params.size());
  for (const ParamRef& p : params) {
    analytic.push_back(*p.grad);
  }

  SoftmaxCrossEntropy loss;
  auto loss_at = [&]() {
    Tensor logits = net.infer(input);
    return loss.forward(logits, labels);
  };

  GradCheckResult result;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& w = *params[pi].value;
    const std::size_t n = w.numel();
    const std::size_t stride = std::max<std::size_t>(1, n / max_per_param);
    for (std::size_t i = 0; i < n; i += stride) {
      const float original = w[i];
      w[i] = original + static_cast<float>(eps);
      const double up = loss_at();
      w[i] = original - static_cast<float>(eps);
      const double down = loss_at();
      w[i] = original;
      const double numeric = (up - down) / (2.0 * eps);
      const double exact = static_cast<double>(analytic[pi][i]);
      const double abs_err = std::fabs(numeric - exact);
      const double scale =
          std::max({std::fabs(numeric), std::fabs(exact), 1e-8});
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, abs_err / scale);
      ++result.checked;
    }
  }
  return result;
}

}  // namespace xbarlife::nn
