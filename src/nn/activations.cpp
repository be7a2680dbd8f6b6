#include "nn/activations.hpp"

#include "common/error.hpp"
#include "tensor/kernels/kernels.hpp"

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
  kernels::select().tanh(input.data(), output_.data(), output_.numel());
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

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  return input;
}

Tensor Flatten::backward(const Tensor& grad_output) { return grad_output; }

}  // namespace xbarlife::nn
