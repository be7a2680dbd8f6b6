// Elementwise activation layers plus Flatten.
#pragma once

#include "nn/layer.hpp"

namespace xbarlife::nn {

/// max(0, x)
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string name = "relu");
  Tensor infer(const Tensor& input, const QuantSpec* spec) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t output_features(std::size_t input_features) const override {
    return input_features;
  }
  LayerKind kind() const override { return LayerKind::kActivation; }

 private:
  Tensor mask_;  // 1 where input > 0
};

/// tanh(x)
class Tanh final : public Layer {
 public:
  explicit Tanh(std::string name = "tanh");
  Tensor infer(const Tensor& input, const QuantSpec* spec) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t output_features(std::size_t input_features) const override {
    return input_features;
  }
  LayerKind kind() const override { return LayerKind::kActivation; }

 private:
  Tensor output_;
};

/// Shape marker between conv stacks and dense heads. Data is already flat
/// per sample, so infer is the identity; the layer exists so topology
/// descriptions read naturally and feature bookkeeping stays explicit.
class Flatten final : public Layer {
 public:
  explicit Flatten(std::string name = "flatten");
  Tensor infer(const Tensor& input, const QuantSpec* spec) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::size_t output_features(std::size_t input_features) const override {
    return input_features;
  }
  LayerKind kind() const override { return LayerKind::kFlatten; }
};

}  // namespace xbarlife::nn
