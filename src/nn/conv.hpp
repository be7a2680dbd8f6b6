// 2-D convolution layer (square kernels, stride 1) lowered to GEMM over
// patches gathered straight from the (zero-padded) input images.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace xbarlife::nn {

/// Convolution over NCHW inputs flattened to (batch, C*H*W) rows.
///
/// The kernel tensor is stored as a (patch_size, out_channels) matrix, the
/// orientation the crossbar mapper expects (inputs drive rows, output
/// channels are columns). The float forward is one batch-wide `W^T * patches`
/// over the (patch_size, batch*pixels) patch matrix, computed tile by
/// tile from column tiles the tap table gathers; its product rows are
/// the channel-major outputs. A padded layer zero-pads its input once per
/// call; a pad-0 layer gathers from the input itself. The weight gradient
/// re-gathers each sample's (pixels, patch_size) patches from the saved
/// (padded) input.
class Conv2D final : public Layer {
 public:
  Conv2D(ConvGeometry geometry, std::size_t out_channels, Rng& rng,
         std::string name);

  Tensor infer(const Tensor& input, const QuantSpec* spec) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::size_t output_features(std::size_t input_features) const override;
  LayerKind kind() const override { return LayerKind::kConv; }

 private:
  /// Checks that `input` is a batch of this layer's images.
  void check_input(const Tensor& input) const;
  /// The float or int8 (`spec`) forward over `input`, a batch of pad-free
  /// images: the layer input itself at pad 0, its pad_images copy
  /// otherwise.
  Tensor lowered(const Tensor& input, const QuantSpec* spec) const;
  /// Checks `grad_output` against the last forward and returns its batch.
  std::size_t check_grad_output(const Tensor& grad_output) const;
  /// Accumulates the weight and bias gradients and, when `grad_input` is
  /// non-null, writes the input gradient into it.
  void backprop(const Tensor& grad_output, Tensor* grad_input);

  ConvGeometry geometry_;
  std::size_t out_channels_;
  Tensor weight_;       // (patch_size, out_channels)
  Tensor bias_;         // (out_channels)
  Tensor weight_grad_;
  Tensor bias_grad_;
  TapTable taps_;  // over geometry_.padded()
  Tensor input_;   // the last forward's padded input, one row per sample
};

}  // namespace xbarlife::nn
