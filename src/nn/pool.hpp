// 2-D max pooling over NCHW features.
#pragma once

#include "nn/layer.hpp"

namespace xbarlife::nn {

/// Every pooling layer takes 2x2 windows at stride 2, as LeNet-5 and
/// VGG-16 do.
inline constexpr std::size_t kPoolWindow = 2;

struct PoolGeometry {
  std::size_t channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;

  std::size_t out_h() const { return in_h / kPoolWindow; }
  std::size_t out_w() const { return in_w / kPoolWindow; }
  void validate() const;
};

class MaxPool2D final : public Layer {
 public:
  MaxPool2D(PoolGeometry geometry, std::string name);
  Tensor infer(const Tensor& input, const QuantSpec* spec) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t output_features(std::size_t input_features) const override;
  LayerKind kind() const override { return LayerKind::kPool; }

 private:
  /// The pooled batch; with `argmax`, also each output's winning flat
  /// input index.
  Tensor pool(const Tensor& input, std::vector<std::size_t>* argmax) const;

  PoolGeometry geometry_;
  std::vector<std::size_t> argmax_;  // the last forward's pool() argmax
};

}  // namespace xbarlife::nn
