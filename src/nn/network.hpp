// Sequential network container: training loop, evaluation, and the weight
// bookkeeping needed by the crossbar mapper and the online-tuning simulator.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/regularizer.hpp"

namespace xbarlife::nn {

/// One crossbar-mapped weight matrix of the network.
struct MappableWeight {
  std::size_t index = 0;        ///< position among mappable weights
  std::string name;             ///< e.g. "conv1.weight"
  LayerKind layer_kind = LayerKind::kDense;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

struct TrainStats {
  double loss = 0.0;        ///< data loss (cross entropy)
  double penalty = 0.0;     ///< regularization penalty
  double accuracy = 0.0;    ///< batch accuracy
};

class Network {
 public:
  explicit Network(std::string name = "network");

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Appends a layer; returns a reference for chaining.
  Network& add(LayerPtr layer);

  const std::string& name() const { return name_; }
  std::size_t layer_count() const { return layers_.size(); }

  /// Inference over a batch; no layer saves anything, so one network may
  /// serve concurrent calls. With `specs` (one per mappable weight, in
  /// mappable_weights() order; see HardwareNetwork::quant_specs()), every
  /// layer with a mappable weight matrix runs the int8 GEMM path on its
  /// spec; without, every layer runs its float forward, bit for bit what
  /// forward() computes. Byte-identical at any thread count.
  Tensor infer(const Tensor& input,
               std::span<const QuantSpec> specs = {}) const;

  /// Training forward pass: each layer saves what backward() needs.
  Tensor forward(const Tensor& input);

  /// evaluate() on the int8 path of infer(input, specs).
  double evaluate_quantized(const Tensor& inputs,
                            std::span<const std::int32_t> labels,
                            std::span<const QuantSpec> specs) const;

  /// Backward pass from a loss gradient; writes every parameter gradient
  /// (the previous pass's are replaced, so nothing zeroes them first). The
  /// first layer computes no input gradient (see Layer::backward_params).
  void backward(const Tensor& grad_output);

  /// All parameters of all layers, in layer order.
  const std::vector<ParamRef>& params() { return params_; }

  /// The weight matrices that get mapped onto crossbars, in layer order.
  std::vector<MappableWeight> mappable_weights();

  /// One SGD step on a batch: forward, loss, backward, then one pass per
  /// parameter tensor that adds the regularizer gradient (mappable
  /// weights) and applies the optimizer update. Each gradient is left
  /// holding what the update used. Returns the batch statistics.
  TrainStats train_batch(const Tensor& input,
                         std::span<const std::int32_t> labels,
                         SgdOptimizer& optimizer,
                         const Regularizer* regularizer);

  /// Computes parameter gradients for a batch without updating weights.
  /// Used by the online-tuning simulator, which needs only gradient signs
  /// (Eq. (5)). Returns the data loss.
  double compute_gradients(const Tensor& input,
                           std::span<const std::int32_t> labels);

  /// Mean accuracy of infer() over `inputs`, evaluated in chunks of 64.
  double evaluate(const Tensor& inputs,
                  std::span<const std::int32_t> labels) const;

  /// Snapshot of every mappable weight matrix (deep copy, layer order).
  std::vector<Tensor> save_mappable_weights();

  /// Total number of trainable scalars.
  std::size_t parameter_count();

  /// Human-readable topology summary.
  std::string summary();

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
  /// Every layer's parameters, gathered as the layers are added.
  std::vector<ParamRef> params_;
  /// The layers that own a mappable weight, which infer() hands a spec.
  std::vector<std::size_t> spec_layers_;
  SoftmaxCrossEntropy loss_;
};

}  // namespace xbarlife::nn
