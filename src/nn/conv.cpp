#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/lanes.hpp"

namespace xbarlife::nn {

namespace {

/// Floats in one gathered column tile: about 32 KB, so a tile stays in L1
/// while the GEMM reads it. A patch of more than 512 floats gets one
/// 16-column panel per tile, which is then larger.
constexpr std::size_t kTileFloats = 8192;

}  // namespace

Conv2D::Conv2D(ConvGeometry geometry, std::size_t out_channels, Rng& rng,
               std::string name)
    : Layer(std::move(name)),
      geometry_(geometry),
      out_channels_(out_channels),
      weight_(Shape{geometry.patch_size(), out_channels}),
      bias_(Shape{out_channels}),
      weight_grad_(Shape{geometry.patch_size(), out_channels}),
      bias_grad_(Shape{out_channels}),
      taps_(geometry.padded()) {
  XB_CHECK(out_channels > 0, "Conv2D needs at least one output channel");
  const auto scale = static_cast<float>(
      std::sqrt(2.0 / static_cast<double>(geometry_.patch_size())));
  weight_.fill_gaussian(rng, 0.0f, scale);
}

void Conv2D::check_input(const Tensor& input) const {
  const std::size_t per_sample =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == per_sample,
           "Conv2D " + name() + " expected (batch, " +
               std::to_string(per_sample) + "), got " +
               input.shape().to_string());
}

Tensor Conv2D::infer(const Tensor& input, const QuantSpec* spec) const {
  check_input(input);
  return geometry_.pad == 0 ? lowered(input, spec)
                            : lowered(pad_images(input, geometry_), spec);
}

Tensor Conv2D::lowered(const Tensor& input, const QuantSpec* spec) const {
  const std::size_t batch = input.shape()[0];
  const std::size_t per_sample = input.shape()[1];
  const std::size_t patch = geometry_.patch_size();
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const std::size_t oc = out_channels_;
  const float* bias = bias_.data();
  Tensor out(Shape{batch, oc * pixels});
  if (spec != nullptr) {
    // One weight coding shared by the whole batch; activations are coded
    // per sample (each sample's patches get their own range).
    const QuantizedTensor qw = quantize_weights(weight_, *spec);
    const auto run_samples = [&](std::size_t b_begin, std::size_t b_end) {
      // The int8 GEMM takes (pixels, patch) activations.
      Tensor rows(Shape{pixels, patch});
      for (std::size_t b = b_begin; b < b_end; ++b) {
        taps_.gather_rows(input.flat().subspan(b * per_sample, per_sample),
                          rows.flat());
        const QuantizedTensor qa = quantize_activations(rows);
        const Tensor y = quantized_linear(qa, qw, nullptr);
        const float* yp = y.data();
        float* o = out.data() + b * oc * pixels;
        for (std::size_t c = 0; c < oc; ++c) {
          for (std::size_t p = 0; p < pixels; ++p) {
            o[c * pixels + p] = yp[p * oc + c] + bias[c];
          }
        }
      }
    };
    parallel_for(0, batch, parallel_grain(batch), run_samples);
    return out;
  }
  // Column j = b * pixels + p of the batch-wide product is pixel p of
  // sample b; tiles are whole 16-column AVX2 panels.
  const std::size_t n = batch * pixels;
  const std::size_t width =
      std::max<std::size_t>(16, kTileFloats / patch / 16 * 16);
  const std::size_t tiles = (n + width - 1) / width;
  const Tensor wt = weight_.transposed();  // (out_ch, patch)
  const kernels::KernelSet& ks = kernels::select();
  // Tiles are independent: each gathers its own columns and writes its
  // own output elements, so they fan out across the pool bit-identically.
  const auto run_tiles = [&](std::size_t t_begin, std::size_t t_end) {
    std::vector<float> cols(patch * width);
    std::vector<float> y(oc * width);
    for (std::size_t t = t_begin; t < t_end; ++t) {
      const std::size_t j0 = t * width;
      const std::size_t w = std::min(width, n - j0);
      taps_.gather_cols(input.flat(), j0, j0 + w,
                        std::span<float>(cols.data(), patch * w));
      // (out_ch, patch) * (patch, w): row c holds channel c of the tile.
      std::fill(y.begin(), y.end(), 0.0f);
      ks.gemm(wt.data(), cols.data(), y.data(), oc, patch, w, 0, oc);
      // Scatter into the channel-major output rows, one sample's pixel
      // run at a time, adding the bias after the last k-block.
      for (std::size_t j = j0; j < j0 + w;) {
        const std::size_t b = j / pixels;
        const std::size_t p0 = j - b * pixels;
        const std::size_t len = std::min(pixels - p0, j0 + w - j);
        float* o = out.data() + b * oc * pixels + p0;
        const float* yc = y.data() + (j - j0);
        for (std::size_t c = 0; c < oc; ++c) {
          const float* yr = yc + c * w;
          const float bc = bias[c];
          store_lanes(o + c * pixels, len,
                      [yr, bc](std::size_t i) { return yr[i] + bc; });
        }
        j += len;
      }
    }
  };
  parallel_for(0, tiles, parallel_grain(tiles), run_tiles);
  return out;
}

Tensor Conv2D::forward(const Tensor& input) {
  check_input(input);
  input_ = geometry_.pad == 0 ? input : pad_images(input, geometry_);
  return lowered(input_, nullptr);
}

std::size_t Conv2D::check_grad_output(const Tensor& grad_output) const {
  XB_CHECK(input_.shape().rank() == 2,
           "Conv2D " + name() + " backward before any forward");
  const std::size_t batch = input_.shape()[0];
  XB_CHECK(grad_output.shape() ==
               Shape({batch, out_channels_ * geometry_.out_h() *
                                 geometry_.out_w()}),
           "Conv2D " + name() + " backward shape mismatch: " +
               grad_output.shape().to_string() + " for a batch of " +
               std::to_string(batch));
  return batch;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  Tensor grad_input(Shape{check_grad_output(grad_output),
                          geometry_.in_channels * geometry_.in_h *
                              geometry_.in_w});
  backprop(grad_output, &grad_input);
  return grad_input;
}

void Conv2D::backward_params(const Tensor& grad_output) {
  check_grad_output(grad_output);
  backprop(grad_output, nullptr);
}

void Conv2D::backprop(const Tensor& grad_output, Tensor* grad_input) {
  const std::size_t batch = input_.shape()[0];
  const std::size_t patch = geometry_.patch_size();
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const std::size_t oc = out_channels_;
  const std::size_t per_sample = input_.shape()[1];
  const std::size_t per_image =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const bool accumulate = accumulate_grads();
  // Per-sample weight/bias contributions land in index-addressed slots and
  // are merged in sample order below, so the accumulated gradients do not
  // depend on the thread count. Weight partials are dW^T, (out_ch, patch).
  std::vector<float> wgrad_partial(batch * oc * patch, 0.0f);
  std::vector<float> bgrad_partial(batch * oc, 0.0f);
  const kernels::KernelSet& ks = kernels::select();
  const auto run_samples = [&](std::size_t b_begin, std::size_t b_end) {
    std::vector<float> rows(pixels * patch);
    std::vector<float> gy(grad_input != nullptr ? pixels * oc : 0);
    std::vector<float> gcols(grad_input != nullptr ? patch * pixels : 0);
    std::vector<float> padded(grad_input != nullptr ? per_sample : 0);
    for (std::size_t b = b_begin; b < b_end; ++b) {
      // The (out_ch, pixels) gradient matrix of this sample.
      const float* g = grad_output.data() + b * oc * pixels;
      float* bg = bgrad_partial.data() + b * oc;
      for (std::size_t c = 0; c < oc; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) {
          bg[c] += g[c * pixels + p];
        }
      }
      // dW^T = g * patches, the patches re-gathered from the input.
      taps_.gather_rows(input_.flat().subspan(b * per_sample, per_sample),
                        rows);
      ks.gemm(g, rows.data(), wgrad_partial.data() + b * oc * patch, oc,
              pixels, patch, 0, oc);
      if (grad_input == nullptr) {
        continue;
      }
      // dCols = W * gy^T over the (pixels, out_ch) gradient gy, each
      // element the dot product over out_ch; then dX = col2im(dCols)
      // through the padded scratch into this sample's row.
      for (std::size_t c = 0; c < oc; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) {
          gy[p * oc + c] = g[c * pixels + p];
        }
      }
      std::fill(gcols.begin(), gcols.end(), 0.0f);
      ks.gemm_nt(weight_.data(), gy.data(), gcols.data(), patch, oc, pixels, 0,
                 patch);
      col2im(gcols, geometry_, padded,
             grad_input->flat().subspan(b * per_image, per_image));
    }
  };
  parallel_for(0, batch, parallel_grain(batch), run_samples);
  // The merge runs in the partials' (out_ch, patch) layout, where each
  // sample's partial is one contiguous add: the weight gradient is
  // transposed in (or starts from zero when written), gets the partials
  // in sample order, and is transposed back.
  float* wg = weight_grad_.data();
  std::vector<float> wg_t(oc * patch);
  if (accumulate) {
    for (std::size_t i = 0; i < patch; ++i) {
      for (std::size_t c = 0; c < oc; ++c) {
        wg_t[c * patch + i] = wg[i * oc + c];
      }
    }
  } else {
    bias_grad_.zero();
  }
  float* acc = wg_t.data();
  float* bgrad = bias_grad_.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* wp = wgrad_partial.data() + b * oc * patch;
    store_lanes(acc, oc * patch,
                [acc, wp](std::size_t i) { return acc[i] + wp[i]; });
    const float* bp = bgrad_partial.data() + b * oc;
    for (std::size_t c = 0; c < oc; ++c) {
      bgrad[c] += bp[c];
    }
  }
  for (std::size_t i = 0; i < patch; ++i) {
    for (std::size_t c = 0; c < oc; ++c) {
      wg[i * oc + c] = wg_t[c * patch + i];
    }
  }
}

std::vector<ParamRef> Conv2D::params() {
  return {
      {name() + ".weight", &weight_, &weight_grad_, /*mappable=*/true},
      {name() + ".bias", &bias_, &bias_grad_, /*mappable=*/false},
  };
}

std::size_t Conv2D::output_features(std::size_t input_features) const {
  XB_CHECK(input_features ==
               geometry_.in_channels * geometry_.in_h * geometry_.in_w,
           "Conv2D feature-count mismatch in topology");
  return out_channels_ * geometry_.out_h() * geometry_.out_w();
}

}  // namespace xbarlife::nn
