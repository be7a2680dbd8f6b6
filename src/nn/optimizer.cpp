#include "nn/optimizer.hpp"

#include "common/error.hpp"

namespace xbarlife::nn {

SgdOptimizer::SgdOptimizer(SgdConfig config) : config_(config) {
  XB_CHECK(config.learning_rate > 0.0, "learning rate must be positive");
  XB_CHECK(config.momentum >= 0.0 && config.momentum < 1.0,
           "momentum must lie in [0, 1)");
}

void SgdOptimizer::step(const std::vector<ParamRef>& params) {
  for (const ParamRef& p : params) {
    XB_CHECK(p.value != nullptr && p.grad != nullptr,
             "optimizer given null parameter");
    update(*p.value, *p.grad, nullptr);
  }
}

PenaltySums SgdOptimizer::update(Tensor& value, Tensor& grad,
                                 const RegularizerTerm* term) {
  auto [it, inserted] = velocity_.try_emplace(&value, value.shape());
  Tensor& v = it->second;
  XB_ASSERT(v.shape() == value.shape(), "velocity buffer shape drifted");
  return update_tensor(value.flat(), grad.flat(), v.flat(),
                       static_cast<float>(config_.learning_rate),
                       static_cast<float>(config_.momentum), term);
}

void SgdOptimizer::set_learning_rate(double lr) {
  XB_CHECK(lr > 0.0, "learning rate must be positive");
  config_.learning_rate = lr;
}

}  // namespace xbarlife::nn
