// Fully-connected layer.
#pragma once

#include "nn/layer.hpp"

namespace xbarlife::nn {

/// y = x W + b with W of shape (in_features, out_features).
///
/// W is flagged mappable: on hardware it becomes one crossbar whose rows are
/// driven by the input voltages (Fig. 1 of the paper).
class Dense final : public Layer {
 public:
  /// He-style initialization scaled for the fan-in, bias zero.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
        std::string name);

  Tensor infer(const Tensor& input, const QuantSpec* spec) const override;
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::size_t output_features(std::size_t input_features) const override;
  LayerKind kind() const override { return LayerKind::kDense; }

  Tensor& weight() { return weight_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weight_;       // (in, out)
  Tensor bias_;         // (out)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_;        // the last forward's input (batch, in)
};

}  // namespace xbarlife::nn
