#include "nn/optimizer.hpp"

#include "common/error.hpp"

namespace xbarlife::nn {

SgdOptimizer::SgdOptimizer(SgdConfig config) : config_(config) {
  XB_CHECK(config.learning_rate > 0.0, "learning rate must be positive");
  XB_CHECK(config.momentum >= 0.0 && config.momentum < 1.0,
           "momentum must lie in [0, 1)");
}

void SgdOptimizer::step(const std::vector<ParamRef>& params) {
  const auto lr = static_cast<float>(config_.learning_rate);
  const auto mu = static_cast<float>(config_.momentum);
  for (const ParamRef& p : params) {
    XB_CHECK(p.value != nullptr && p.grad != nullptr,
             "optimizer given null parameter");
    auto [it, inserted] = velocity_.try_emplace(p.value, p.value->shape());
    Tensor& v = it->second;
    XB_ASSERT(v.shape() == p.value->shape(),
              "velocity buffer shape drifted");
    XB_CHECK(p.grad->numel() == v.numel(),
             "gradient size does not match its parameter");
    const std::span<float> vel = v.flat();
    const std::span<float> w = p.value->flat();
    const std::span<const float> g = p.grad->flat();
    for (std::size_t i = 0; i < vel.size(); ++i) {
      vel[i] = mu * vel[i] - lr * g[i];
      w[i] += vel[i];
    }
  }
}

void SgdOptimizer::set_learning_rate(double lr) {
  XB_CHECK(lr > 0.0, "learning rate must be positive");
  config_.learning_rate = lr;
}

}  // namespace xbarlife::nn
