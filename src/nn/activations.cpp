#include "nn/activations.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xbarlife::nn {

ReLU::ReLU(std::string name) : Layer(std::move(name)) {}

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  mask_ = Tensor(input.shape());
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] > 0.0f) {
      mask_[i] = 1.0f;
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  XB_CHECK(grad_output.shape() == mask_.shape(),
           "ReLU backward shape mismatch");
  return grad_output.mul(mask_);
}

Tanh::Tanh(std::string name) : Layer(std::move(name)) {}

Tensor Tanh::forward(const Tensor& input, bool /*training*/) {
  output_ = Tensor(input.shape());
  const float* x = input.data();
  float* y = output_.data();
  for (std::size_t i = 0; i < output_.numel(); ++i) {
    y[i] = std::tanh(x[i]);
  }
  return output_;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  XB_CHECK(grad_output.shape() == output_.shape(),
           "Tanh backward shape mismatch");
  Tensor grad(grad_output.shape());
  const float* g = grad_output.data();
  const float* y = output_.data();
  float* out = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    out[i] = g[i] * (1.0f - y[i] * y[i]);
  }
  return grad;
}

Sigmoid::Sigmoid(std::string name) : Layer(std::move(name)) {}

Tensor Sigmoid::forward(const Tensor& input, bool /*training*/) {
  output_ = input;
  for (std::size_t i = 0; i < output_.numel(); ++i) {
    output_[i] = 1.0f / (1.0f + std::exp(-output_[i]));
  }
  return output_;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  XB_CHECK(grad_output.shape() == output_.shape(),
           "Sigmoid backward shape mismatch");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] *= output_[i] * (1.0f - output_[i]);
  }
  return grad;
}

Flatten::Flatten(std::string name) : Layer(std::move(name)) {}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  return input;
}

Tensor Flatten::backward(const Tensor& grad_output) { return grad_output; }

Dropout::Dropout(double rate, std::uint64_t seed, std::string name)
    : Layer(std::move(name)), rate_(rate), rng_(seed) {
  XB_CHECK(rate >= 0.0 && rate < 1.0, "dropout rate must lie in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  last_training_ = training;
  if (!training || rate_ == 0.0) {
    return input;
  }
  mask_ = Tensor(input.shape());
  const auto keep = static_cast<float>(1.0 - rate_);
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_.bernoulli(rate_)) {
      mask_[i] = 0.0f;
      out[i] = 0.0f;
    } else {
      mask_[i] = 1.0f / keep;
      out[i] *= 1.0f / keep;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!last_training_ || rate_ == 0.0) {
    return grad_output;
  }
  XB_CHECK(grad_output.shape() == mask_.shape(),
           "Dropout backward shape mismatch");
  return grad_output.mul(mask_);
}

}  // namespace xbarlife::nn
