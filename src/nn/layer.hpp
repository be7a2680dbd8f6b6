// Layer abstraction for the training substrate.
//
// The paper trains LeNet-5 and VGG-16 in TensorFlow; this module provides
// the equivalent from-scratch substrate: layers expose infer, forward/backward
// and their parameters, and the ones that own a weight *matrix* (dense, conv)
// flag it as mappable so the crossbar mapper can find every matrix that will
// live on a memristor array.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/quantized.hpp"
#include "tensor/tensor.hpp"

namespace xbarlife::nn {

enum class LayerKind {
  kDense,
  kConv,
  kPool,
  kActivation,
  kFlatten,
};

/// Returns "dense", "conv", ... for reports.
std::string to_string(LayerKind kind);

/// Non-owning reference to one parameter tensor and its gradient.
struct ParamRef {
  std::string name;       ///< e.g. "conv1.weight"
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  /// True for the weight matrices that are mapped onto crossbars
  /// (biases and scalars stay in digital periphery).
  bool mappable = false;
};

/// Base class of all layers. `forward` is stateful: it saves what
/// `backward` needs, so a layer runs one training step at a time. `infer`
/// saves nothing and may be called concurrently on one layer.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Inference on a (batch, features) input. A non-null `spec` runs a
  /// layer that owns a mappable weight matrix (dense, conv) on the int8
  /// GEMM path on that grid; every other layer ignores it and runs its
  /// exact float forward, as dequantizing between layers requires.
  virtual Tensor infer(const Tensor& input, const QuantSpec* spec) const = 0;

  /// Training forward: infer(input, nullptr) plus whatever backward()
  /// needs saved. The default saves nothing.
  virtual Tensor forward(const Tensor& input) { return infer(input, nullptr); }

  /// Propagates `grad_output` (same shape as the last forward output) back,
  /// accumulating parameter gradients (writing them after
  /// overwrite_grads()) and returning the input gradient.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() without the input gradient, for a network's first layer,
  /// whose input gradient nothing reads. Parameter gradients accumulate
  /// exactly as backward() accumulates them; layers that own a weight
  /// matrix override this to skip the input-gradient GEMM.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Parameter references; empty for parameter-free layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Number of output features per sample given `input_features`.
  virtual std::size_t output_features(std::size_t input_features) const = 0;

  virtual LayerKind kind() const = 0;
  const std::string& name() const { return name_; }

  /// Makes the next backward() or backward_params() write this layer's
  /// parameter gradients instead of adding to them: zeroing folded into
  /// the backward pass, with no pass over the gradients of its own.
  void overwrite_grads() { overwrite_grads_ = true; }

 protected:
  explicit Layer(std::string name) : name_(std::move(name)) {}

  /// For a backward pass: false once after overwrite_grads() (write the
  /// parameter gradients), true otherwise (accumulate into them).
  bool accumulate_grads() { return !std::exchange(overwrite_grads_, false); }

 private:
  std::string name_;
  bool overwrite_grads_ = false;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace xbarlife::nn
