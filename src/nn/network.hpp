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
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Forward pass over a batch (inference mode unless `training`).
  Tensor forward(const Tensor& input, bool training = false);

  /// Int8 inference forward: every layer with a mappable weight matrix
  /// runs the quantized GEMM path on its spec (one per mappable weight,
  /// in mappable_weights() order — see HardwareNetwork::quant_specs());
  /// all other layers run their exact float forward. Byte-identical at
  /// any thread count.
  Tensor forward_quantized(const Tensor& input,
                           std::span<const QuantSpec> specs);

  /// evaluate() on the quantized forward pass.
  double evaluate_quantized(const Tensor& inputs,
                            std::span<const std::int32_t> labels,
                            std::span<const QuantSpec> specs,
                            std::size_t batch = 64);

  /// Backward pass from a loss gradient; fills parameter gradients. The
  /// first layer computes no input gradient (see Layer::backward_params).
  void backward(const Tensor& grad_output);

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// All parameters of all layers.
  std::vector<ParamRef> params();

  /// The weight matrices that get mapped onto crossbars, in layer order.
  std::vector<MappableWeight> mappable_weights();

  /// One SGD step on a batch: forward, loss, backward, regularizer
  /// gradient, optimizer update. Returns the batch statistics.
  TrainStats train_batch(const Tensor& input,
                         std::span<const std::int32_t> labels,
                         SgdOptimizer& optimizer,
                         const Regularizer* regularizer);

  /// Computes parameter gradients for a batch without updating weights.
  /// Used by the online-tuning simulator, which needs only gradient signs
  /// (Eq. (5)). Returns the data loss.
  double compute_gradients(const Tensor& input,
                           std::span<const std::int32_t> labels);

  /// Mean accuracy over `inputs` evaluated in chunks of `batch`.
  double evaluate(const Tensor& inputs,
                  std::span<const std::int32_t> labels,
                  std::size_t batch = 64);

  /// Snapshot of every mappable weight matrix (deep copy, layer order).
  std::vector<Tensor> save_mappable_weights();

  /// Restores a snapshot taken by save_mappable_weights().
  void load_mappable_weights(const std::vector<Tensor>& snapshot);

  /// Total number of trainable scalars.
  std::size_t parameter_count();

  /// Human-readable topology summary.
  std::string summary();

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
  SoftmaxCrossEntropy loss_;
};

}  // namespace xbarlife::nn
