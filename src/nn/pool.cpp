#include "nn/pool.hpp"

#include "common/error.hpp"

namespace xbarlife::nn {

void PoolGeometry::validate() const {
  XB_CHECK(channels > 0 && in_h > 0 && in_w > 0, "empty pool input");
  XB_CHECK(in_h >= kPoolWindow && in_w >= kPoolWindow,
           "pool window exceeds input");
}

MaxPool2D::MaxPool2D(PoolGeometry geometry, std::string name)
    : Layer(std::move(name)), geometry_(geometry) {
  geometry_.validate();
}

Tensor MaxPool2D::infer(const Tensor& input,
                        const QuantSpec* /*spec*/) const {
  return pool(input, nullptr);
}

Tensor MaxPool2D::forward(const Tensor& input) {
  return pool(input, &argmax_);
}

Tensor MaxPool2D::pool(const Tensor& input,
                       std::vector<std::size_t>* argmax) const {
  const auto& g = geometry_;
  const std::size_t per_sample = g.channels * g.in_h * g.in_w;
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == per_sample,
           "pool " + name() + " expected (batch, " +
               std::to_string(per_sample) + "), got " +
               input.shape().to_string());
  const std::size_t batch = input.shape()[0];
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t per_out = g.channels * oh * ow;
  Tensor out(Shape{batch, per_out});
  if (argmax != nullptr) {
    argmax->assign(batch * per_out, 0);
  }
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = input.data() + b * per_sample;
    float* y = out.data() + b * per_out;
    std::size_t* arg =
        argmax != nullptr ? argmax->data() + b * per_out : nullptr;
    for (std::size_t c = 0; c < g.channels; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          // Seeded from the window's first tap, so a window with no
          // finite maximum (all -inf, or NaN first) still routes its
          // gradient inside itself.
          const std::size_t first =
              (c * g.in_h + oy * kPoolWindow) * g.in_w + ox * kPoolWindow;
          float best = x[first];
          std::size_t best_idx = first;
          for (std::size_t wy = 0; wy < kPoolWindow; ++wy) {
            for (std::size_t wx = 0; wx < kPoolWindow; ++wx) {
              const std::size_t idx = first + wy * g.in_w + wx;
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t o = (c * oh + oy) * ow + ox;
          y[o] = best;
          if (arg != nullptr) {
            arg[o] = best_idx;
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  const auto& g = geometry_;
  const std::size_t per_out = g.channels * g.out_h() * g.out_w();
  const std::size_t batch = argmax_.size() / per_out;
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == batch &&
               grad_output.shape()[1] == per_out,
           "MaxPool2D backward shape mismatch");
  const std::size_t per_in = g.channels * g.in_h * g.in_w;
  Tensor grad_input(Shape{batch, per_in});
  for (std::size_t b = 0; b < batch; ++b) {
    float* gx = grad_input.data() + b * per_in;
    const float* gy = grad_output.data() + b * per_out;
    const std::size_t* arg = argmax_.data() + b * per_out;
    for (std::size_t o = 0; o < per_out; ++o) {
      gx[arg[o]] += gy[o];
    }
  }
  return grad_input;
}

std::size_t MaxPool2D::output_features(std::size_t input_features) const {
  XB_CHECK(input_features == geometry_.channels * geometry_.in_h *
                                 geometry_.in_w,
           "MaxPool2D feature-count mismatch in topology");
  return geometry_.channels * geometry_.out_h() * geometry_.out_w();
}

}  // namespace xbarlife::nn
