#include "nn/activations.hpp"

#include "common/error.hpp"
#include "tensor/kernels/kernels.hpp"

namespace xbarlife::nn {

ReLU::ReLU(std::string name) : Layer(std::move(name)) {}

Tensor ReLU::infer(const Tensor& input, const QuantSpec* /*spec*/) const {
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (!(out[i] > 0.0f)) {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::forward(const Tensor& input) {
  Tensor out = infer(input, nullptr);
  mask_ = Tensor(out.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) {
    mask_[i] = out[i] > 0.0f ? 1.0f : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  XB_CHECK(grad_output.shape() == mask_.shape(),
           "ReLU backward shape mismatch");
  return grad_output.mul(mask_);
}

Tanh::Tanh(std::string name) : Layer(std::move(name)) {}

Tensor Tanh::infer(const Tensor& input, const QuantSpec* /*spec*/) const {
  Tensor out(input.shape());
  kernels::select().tanh(input.data(), out.data(), out.numel());
  return out;
}

Tensor Tanh::forward(const Tensor& input) {
  output_ = infer(input, nullptr);
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

Flatten::Flatten(std::string name) : Layer(std::move(name)) {}

Tensor Flatten::infer(const Tensor& input, const QuantSpec* /*spec*/) const {
  return input;
}

Tensor Flatten::backward(const Tensor& grad_output) { return grad_output; }

}  // namespace xbarlife::nn
