#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"

namespace xbarlife::nn {

Conv2D::Conv2D(ConvGeometry geometry, std::size_t out_channels, Rng& rng,
               std::string name)
    : Layer(std::move(name)),
      geometry_(geometry),
      out_channels_(out_channels),
      weight_(Shape{geometry.patch_size(), out_channels}),
      bias_(Shape{out_channels}),
      weight_grad_(Shape{geometry.patch_size(), out_channels}),
      bias_grad_(Shape{out_channels}) {
  geometry_.validate();
  XB_CHECK(out_channels > 0, "Conv2D needs at least one output channel");
  const auto scale = static_cast<float>(
      std::sqrt(2.0 / static_cast<double>(geometry_.patch_size())));
  weight_.fill_gaussian(rng, 0.0f, scale);
}

std::size_t Conv2D::check_input(const Tensor& input) const {
  const std::size_t per_sample =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == per_sample,
           "Conv2D " + name() + " expected (batch, " +
               std::to_string(per_sample) + "), got " +
               input.shape().to_string());
  return input.shape()[0];
}

Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
  const std::size_t batch = check_input(input);
  const std::size_t per_sample = input.shape()[1];
  const std::size_t patch = geometry_.patch_size();
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const Shape cols_shape{patch, pixels};
  const Tensor wt = weight_.transposed();  // (out_ch, patch)
  const float* bias = bias_.data();
  Tensor out(Shape{batch, out_channels_ * pixels});
  cols_.resize(batch);
  const kernels::KernelSet& ks = kernels::select();
  // Samples are independent: each writes its own cols_ slot and its own
  // row of `out`, so the batch fans out across the pool bit-identically.
  parallel_for(0, batch, 1, [&](std::size_t b_begin, std::size_t b_end) {
    for (std::size_t b = b_begin; b < b_end; ++b) {
      Tensor& cols = cols_[b];
      if (cols.shape() != cols_shape) {
        cols = Tensor(cols_shape);
      }
      im2col(input.flat().subspan(b * per_sample, per_sample), geometry_,
             cols.flat());
      // (out_ch, patch) * (patch, pixels) -> the channel-major output row.
      float* y = out.data() + b * out_channels_ * pixels;
      ks.gemm(wt.data(), cols.data(), y, out_channels_, patch, pixels, 0,
              out_channels_);
      for (std::size_t c = 0; c < out_channels_; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) {
          y[c * pixels + p] += bias[c];
        }
      }
    }
  });
  return out;
}

Tensor Conv2D::forward_quantized(const Tensor& input, const QuantSpec& spec) {
  const std::size_t batch = check_input(input);
  const std::size_t per_sample = input.shape()[1];
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  // One weight coding shared by the whole batch; activations are coded
  // per sample (each sample's im2col patches get their own range). The
  // training-path cols_ cache is left untouched — this is an
  // inference-only path.
  const QuantizedTensor qw = quantize_weights(weight_, spec);
  const float* bias = bias_.data();
  Tensor out(Shape{batch, out_channels_ * pixels});
  parallel_for(0, batch, 1, [&](std::size_t b_begin, std::size_t b_end) {
    Tensor cols(Shape{geometry_.patch_size(), pixels});
    for (std::size_t b = b_begin; b < b_end; ++b) {
      im2col(input.flat().subspan(b * per_sample, per_sample), geometry_,
             cols.flat());
      // The int8 GEMM takes (pixels, patch) activations.
      const QuantizedTensor qa = quantize_activations(cols.transposed());
      const Tensor y = quantized_linear(qa, qw, nullptr);
      const float* yp = y.data();
      float* o = out.data() + b * out_channels_ * pixels;
      for (std::size_t c = 0; c < out_channels_; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) {
          o[c * pixels + p] = yp[p * out_channels_ + c] + bias[c];
        }
      }
    }
  });
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  Tensor grad_input(Shape{cols_.size(), geometry_.in_channels *
                                            geometry_.in_h * geometry_.in_w});
  backprop(grad_output, &grad_input);
  return grad_input;
}

void Conv2D::backward_params(const Tensor& grad_output) {
  backprop(grad_output, nullptr);
}

void Conv2D::backprop(const Tensor& grad_output, Tensor* grad_input) {
  const std::size_t batch = cols_.size();
  const std::size_t patch = geometry_.patch_size();
  const std::size_t pixels = geometry_.out_h() * geometry_.out_w();
  const std::size_t oc = out_channels_;
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == batch &&
               grad_output.shape()[1] == oc * pixels,
           "Conv2D backward shape mismatch");
  const std::size_t per_sample =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  // Per-sample weight/bias contributions land in index-addressed slots and
  // are merged in sample order below, so the accumulated gradients do not
  // depend on the thread count.
  std::vector<float> wgrad_partial(batch * patch * oc, 0.0f);
  std::vector<float> bgrad_partial(batch * oc, 0.0f);
  const kernels::KernelSet& ks = kernels::select();
  parallel_for(0, batch, 1, [&](std::size_t b_begin, std::size_t b_end) {
    std::vector<float> gy(pixels * oc);
    std::vector<float> gcols(grad_input != nullptr ? patch * pixels : 0);
    for (std::size_t b = b_begin; b < b_end; ++b) {
      // The (pixels, out_ch) gradient matrix of this sample.
      const float* g = grad_output.data() + b * oc * pixels;
      float* bg = bgrad_partial.data() + b * oc;
      for (std::size_t c = 0; c < oc; ++c) {
        for (std::size_t p = 0; p < pixels; ++p) {
          gy[p * oc + c] = g[c * pixels + p];
          bg[c] += g[c * pixels + p];
        }
      }
      // dW = cols * gy: cols already is patches^T.
      ks.gemm(cols_[b].data(), gy.data(), wgrad_partial.data() + b * patch * oc,
              patch, pixels, oc, 0, patch);
      if (grad_input == nullptr) {
        continue;
      }
      // dCols = W * gy^T, each element the dot product over out_ch; then
      // dX = col2im(dCols) straight into this sample's row.
      std::fill(gcols.begin(), gcols.end(), 0.0f);
      ks.gemm_nt(weight_.data(), gy.data(), gcols.data(), patch, oc, pixels, 0,
                 patch);
      col2im(gcols, geometry_,
             grad_input->flat().subspan(b * per_sample, per_sample));
    }
  });
  float* wg = weight_grad_.data();
  float* bgrad = bias_grad_.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* wp = wgrad_partial.data() + b * patch * oc;
    for (std::size_t i = 0; i < patch * oc; ++i) {
      wg[i] += wp[i];
    }
    const float* bp = bgrad_partial.data() + b * oc;
    for (std::size_t c = 0; c < oc; ++c) {
      bgrad[c] += bp[c];
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
