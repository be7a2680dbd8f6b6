// SGD optimizer with momentum (Eq. (3) of the paper plus classical
// momentum). Network::train_batch hands it each parameter with its
// regularizer term, and one pass over the tensor adds the regularizer
// gradient and applies the update (nn/update.hpp).
#pragma once

#include <unordered_map>

#include "nn/layer.hpp"
#include "nn/update.hpp"

namespace xbarlife::nn {

struct SgdConfig {
  double learning_rate = 0.01;
  double momentum = 0.9;
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(SgdConfig config);

  /// Applies one update to every parameter: v = mu*v - lr*grad; w += v.
  void step(const std::vector<ParamRef>& params);

  /// One update of `value` in a single pass: with a `term`, grad +=
  /// reg'(value) first (grad keeps the sum), and the term's penalty sums
  /// over the pre-update value are returned.
  PenaltySums update(Tensor& value, Tensor& grad,
                     const RegularizerTerm* term);

  void set_learning_rate(double lr);
  double learning_rate() const { return config_.learning_rate; }

  /// Velocity buffer for `param`, or null before its first step().
  /// Exposed for checkpointing (serialized in parameter order, never by
  /// address — tensor addresses are not stable across processes).
  const Tensor* velocity_for(const Tensor* param) const {
    const auto it = velocity_.find(param);
    return it == velocity_.end() ? nullptr : &it->second;
  }

  /// Installs a restored velocity buffer for `param`.
  void set_velocity(const Tensor* param, Tensor velocity) {
    velocity_.insert_or_assign(param, std::move(velocity));
  }

 private:
  SgdConfig config_;
  // Velocity buffers keyed by the parameter tensor's address; stable for
  // the lifetime of the network.
  std::unordered_map<const Tensor*, Tensor> velocity_;
};

}  // namespace xbarlife::nn
