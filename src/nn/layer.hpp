// Layer abstraction for the training substrate.
//
// The paper trains LeNet-5 and VGG-16 in TensorFlow; this module provides
// the equivalent from-scratch substrate: layers expose forward/backward and
// their parameters, and the ones that own a weight *matrix* (dense, conv)
// flag it as mappable so the crossbar mapper can find every matrix that will
// live on a memristor array.
#pragma once

#include <memory>
#include <string>
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
  kDropout,
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

/// Base class of all layers. Layers are stateful: forward caches whatever
/// backward needs, so a network instance must not be shared across threads.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes outputs for a batch. Input is rank-2: (batch, features).
  /// `training` enables stochastic behaviour (dropout).
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Int8 inference forward on `spec`'s quantization grid. Layers that
  /// own a mappable weight matrix (dense, conv) override this to run the
  /// quantized GEMM path; everything else ignores the spec and runs the
  /// exact float forward, which is what the mathematically equivalent
  /// dequantize-between-layers composition requires.
  virtual Tensor forward_quantized(const Tensor& input,
                                   const QuantSpec& spec) {
    (void)spec;
    return forward(input, /*training=*/false);
  }

  /// Propagates `grad_output` (same shape as the last forward output) back,
  /// accumulating parameter gradients and returning the input gradient.
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

  /// Zeroes all parameter gradients.
  void zero_grad();

 protected:
  explicit Layer(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace xbarlife::nn
