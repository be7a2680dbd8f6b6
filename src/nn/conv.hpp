// 2-D convolution layer (square kernels) lowered to GEMM via im2col.
#pragma once

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace xbarlife::nn {

/// Convolution over NCHW inputs flattened to (batch, C*H*W) rows.
///
/// The kernel tensor is stored as a (patch_size, out_channels) matrix, the
/// orientation the crossbar mapper expects (inputs drive rows, output
/// channels are columns). Per sample the forward is `W^T * cols` over the
/// (patch_size, pixels) im2col matrix, which yields the channel-major
/// output row directly.
class Conv2D final : public Layer {
 public:
  Conv2D(ConvGeometry geometry, std::size_t out_channels, Rng& rng,
         std::string name);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor forward_quantized(const Tensor& input,
                           const QuantSpec& spec) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::size_t output_features(std::size_t input_features) const override;
  LayerKind kind() const override { return LayerKind::kConv; }

  const ConvGeometry& geometry() const { return geometry_; }
  std::size_t out_channels() const { return out_channels_; }
  const Tensor& weight() const { return weight_; }

 private:
  /// Checks a (batch, C*H*W) input and returns the batch size.
  std::size_t check_input(const Tensor& input) const;
  /// Accumulates the weight and bias gradients and, when `grad_input` is
  /// non-null, writes the input gradient into it.
  void backprop(const Tensor& grad_output, Tensor* grad_input);

  ConvGeometry geometry_;
  std::size_t out_channels_;
  Tensor weight_;       // (patch_size, out_channels)
  Tensor bias_;         // (out_channels)
  Tensor weight_grad_;
  Tensor bias_grad_;
  std::vector<Tensor> cols_;  // (patch_size, pixels) im2col per sample
};

}  // namespace xbarlife::nn
