#include "nn/pool.hpp"

#include "common/error.hpp"

namespace xbarlife::nn {

void PoolGeometry::validate() const {
  XB_CHECK(channels > 0 && in_h > 0 && in_w > 0, "empty pool input");
  XB_CHECK(window > 0 && stride > 0, "pool window/stride must be positive");
  XB_CHECK(in_h >= window && in_w >= window, "pool window exceeds input");
}

namespace {
std::size_t check_pool_input(const Tensor& input, const PoolGeometry& g,
                             const std::string& name) {
  const std::size_t per_sample = g.channels * g.in_h * g.in_w;
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == per_sample,
           "pool " + name + " expected (batch, " +
               std::to_string(per_sample) + "), got " +
               input.shape().to_string());
  return input.shape()[0];
}
}  // namespace

MaxPool2D::MaxPool2D(PoolGeometry geometry, std::string name)
    : Layer(std::move(name)), geometry_(geometry) {
  geometry_.validate();
}

Tensor MaxPool2D::forward(const Tensor& input, bool /*training*/) {
  batch_ = check_pool_input(input, geometry_, name());
  const auto& g = geometry_;
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t per_out = g.channels * oh * ow;
  Tensor out(Shape{batch_, per_out});
  argmax_.assign(batch_ * per_out, 0);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* x = input.data() + b * g.channels * g.in_h * g.in_w;
    float* y = out.data() + b * per_out;
    std::size_t* arg = argmax_.data() + b * per_out;
    for (std::size_t c = 0; c < g.channels; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          // Seeded from the window's first tap, so a window with no
          // finite maximum (all -inf, or NaN first) still routes its
          // gradient inside itself.
          const std::size_t first =
              (c * g.in_h + oy * g.stride) * g.in_w + ox * g.stride;
          float best = x[first];
          std::size_t best_idx = first;
          for (std::size_t wy = 0; wy < g.window; ++wy) {
            for (std::size_t wx = 0; wx < g.window; ++wx) {
              const std::size_t idx = first + wy * g.in_w + wx;
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t o = (c * oh + oy) * ow + ox;
          y[o] = best;
          arg[o] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  const auto& g = geometry_;
  const std::size_t per_out = g.channels * g.out_h() * g.out_w();
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == batch_ &&
               grad_output.shape()[1] == per_out,
           "MaxPool2D backward shape mismatch");
  const std::size_t per_in = g.channels * g.in_h * g.in_w;
  Tensor grad_input(Shape{batch_, per_in});
  for (std::size_t b = 0; b < batch_; ++b) {
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

AvgPool2D::AvgPool2D(PoolGeometry geometry, std::string name)
    : Layer(std::move(name)), geometry_(geometry) {
  geometry_.validate();
}

Tensor AvgPool2D::forward(const Tensor& input, bool /*training*/) {
  batch_ = check_pool_input(input, geometry_, name());
  const auto& g = geometry_;
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const auto inv =
      1.0f / static_cast<float>(g.window * g.window);
  Tensor out(Shape{batch_, g.channels * oh * ow});
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* x = input.data() + b * g.channels * g.in_h * g.in_w;
    for (std::size_t c = 0; c < g.channels; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t wy = 0; wy < g.window; ++wy) {
            for (std::size_t wx = 0; wx < g.window; ++wx) {
              const std::size_t iy = oy * g.stride + wy;
              const std::size_t ix = ox * g.stride + wx;
              acc += x[(c * g.in_h + iy) * g.in_w + ix];
            }
          }
          out.at(b, (c * oh + oy) * ow + ox) = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  const auto& g = geometry_;
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t per_out = g.channels * oh * ow;
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == batch_ &&
               grad_output.shape()[1] == per_out,
           "AvgPool2D backward shape mismatch");
  const auto inv = 1.0f / static_cast<float>(g.window * g.window);
  Tensor grad_input(Shape{batch_, g.channels * g.in_h * g.in_w});
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t c = 0; c < g.channels; ++c) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float go =
              grad_output.at(b, (c * oh + oy) * ow + ox) * inv;
          for (std::size_t wy = 0; wy < g.window; ++wy) {
            for (std::size_t wx = 0; wx < g.window; ++wx) {
              const std::size_t iy = oy * g.stride + wy;
              const std::size_t ix = ox * g.stride + wx;
              grad_input.at(b, (c * g.in_h + iy) * g.in_w + ix) += go;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::size_t AvgPool2D::output_features(std::size_t input_features) const {
  XB_CHECK(input_features == geometry_.channels * geometry_.in_h *
                                 geometry_.in_w,
           "AvgPool2D feature-count mismatch in topology");
  return geometry_.channels * geometry_.out_h() * geometry_.out_w();
}

}  // namespace xbarlife::nn
