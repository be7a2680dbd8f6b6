#include "nn/dense.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tensor/matmul.hpp"

namespace xbarlife::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
             std::string name)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{in_features, out_features}),
      bias_(Shape{out_features}),
      weight_grad_(Shape{in_features, out_features}),
      bias_grad_(Shape{out_features}) {
  XB_CHECK(in_features > 0 && out_features > 0, "Dense needs positive dims");
  const auto scale = static_cast<float>(
      std::sqrt(2.0 / static_cast<double>(in_features)));
  weight_.fill_gaussian(rng, 0.0f, scale);
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == in_features_,
           "Dense " + name() + " expected (batch, " +
               std::to_string(in_features_) + "), got " +
               input.shape().to_string());
  input_ = input;
  Tensor out = matmul(input, weight_);
  const std::size_t batch = out.shape()[0];
  const float* bias = bias_.data();
  float* row = out.data();
  for (std::size_t b = 0; b < batch; ++b, row += out_features_) {
    for (std::size_t j = 0; j < out_features_; ++j) {
      row[j] += bias[j];
    }
  }
  return out;
}

Tensor Dense::forward_quantized(const Tensor& input, const QuantSpec& spec) {
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == in_features_,
           "Dense " + name() + " expected (batch, " +
               std::to_string(in_features_) + "), got " +
               input.shape().to_string());
  // Weights are re-coded per call: the online tuner mutates them between
  // inference epochs, and coding is O(in*out) — noise next to the GEMM.
  const QuantizedTensor qw = quantize_weights(weight_, spec);
  const QuantizedTensor qa = quantize_activations(input);
  return quantized_linear(qa, qw, &bias_);
}

Tensor Dense::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // dx = dy W^T
  return matmul_nt(grad_output, weight_);
}

void Dense::backward_params(const Tensor& grad_output) {
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == input_.shape()[0] &&
               grad_output.shape()[1] == out_features_,
           "Dense backward shape mismatch");
  // dW = x^T dy ; db = sum over batch of dy
  weight_grad_.add_(matmul_tn(input_, grad_output));
  const std::size_t batch = grad_output.shape()[0];
  float* bias_grad = bias_grad_.data();
  const float* row = grad_output.data();
  for (std::size_t b = 0; b < batch; ++b, row += out_features_) {
    for (std::size_t j = 0; j < out_features_; ++j) {
      bias_grad[j] += row[j];
    }
  }
}

std::vector<ParamRef> Dense::params() {
  return {
      {name() + ".weight", &weight_, &weight_grad_, /*mappable=*/true},
      {name() + ".bias", &bias_, &bias_grad_, /*mappable=*/false},
  };
}

std::size_t Dense::output_features(std::size_t input_features) const {
  XB_CHECK(input_features == in_features_,
           "Dense feature-count mismatch in topology");
  return out_features_;
}

}  // namespace xbarlife::nn
