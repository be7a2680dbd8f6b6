// 2-D max pooling over NCHW features.
#pragma once

#include "nn/layer.hpp"

namespace xbarlife::nn {

struct PoolGeometry {
  std::size_t channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t window = 2;
  std::size_t stride = 2;

  std::size_t out_h() const { return (in_h - window) / stride + 1; }
  std::size_t out_w() const { return (in_w - window) / stride + 1; }
  void validate() const;
};

class MaxPool2D final : public Layer {
 public:
  MaxPool2D(PoolGeometry geometry, std::string name);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t output_features(std::size_t input_features) const override;
  LayerKind kind() const override { return LayerKind::kPool; }
  const PoolGeometry& geometry() const { return geometry_; }

 private:
  PoolGeometry geometry_;
  std::vector<std::size_t> argmax_;  // winning flat input index per output
  std::size_t batch_ = 0;
};

}  // namespace xbarlife::nn
