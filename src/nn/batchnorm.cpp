#include "nn/batchnorm.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xbarlife::nn {

BatchNorm::BatchNorm(std::size_t features, double momentum, double epsilon,
                     std::string name)
    : Layer(std::move(name)),
      features_(features),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Shape{features}, 1.0f),
      beta_(Shape{features}),
      gamma_grad_(Shape{features}),
      beta_grad_(Shape{features}),
      running_mean_(Shape{features}),
      running_var_(Shape{features}, 1.0f) {
  XB_CHECK(features > 0, "BatchNorm needs at least one feature");
  XB_CHECK(momentum >= 0.0 && momentum < 1.0,
           "momentum must lie in [0, 1)");
  XB_CHECK(epsilon > 0.0, "epsilon must be positive");
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  XB_CHECK(input.shape().rank() == 2 && input.shape()[1] == features_,
           "BatchNorm " + name() + " expected (batch, " +
               std::to_string(features_) + "), got " +
               input.shape().to_string());
  batch_ = input.shape()[0];
  last_training_ = training;
  Tensor out(input.shape());
  x_hat_ = Tensor(input.shape());
  batch_inv_std_ = Tensor(Shape{features_});

  for (std::size_t f = 0; f < features_; ++f) {
    double mean;
    double var;
    if (training) {
      XB_CHECK(batch_ >= 2, "BatchNorm training needs batch >= 2");
      double sum = 0.0;
      for (std::size_t b = 0; b < batch_; ++b) {
        sum += input.at(b, f);
      }
      mean = sum / static_cast<double>(batch_);
      double sq = 0.0;
      for (std::size_t b = 0; b < batch_; ++b) {
        const double d = input.at(b, f) - mean;
        sq += d * d;
      }
      var = sq / static_cast<double>(batch_);
      running_mean_[f] = static_cast<float>(
          momentum_ * running_mean_[f] + (1.0 - momentum_) * mean);
      running_var_[f] = static_cast<float>(
          momentum_ * running_var_[f] + (1.0 - momentum_) * var);
    } else {
      mean = running_mean_[f];
      var = running_var_[f];
    }
    const double inv_std = 1.0 / std::sqrt(var + epsilon_);
    batch_inv_std_[f] = static_cast<float>(inv_std);
    for (std::size_t b = 0; b < batch_; ++b) {
      const double xh = (input.at(b, f) - mean) * inv_std;
      x_hat_.at(b, f) = static_cast<float>(xh);
      out.at(b, f) =
          static_cast<float>(gamma_[f] * xh + beta_[f]);
    }
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  XB_CHECK(grad_output.shape().rank() == 2 &&
               grad_output.shape()[0] == batch_ &&
               grad_output.shape()[1] == features_,
           "BatchNorm backward shape mismatch");
  if (!accumulate_grads()) {
    gamma_grad_.zero();
    beta_grad_.zero();
  }
  Tensor grad_input(grad_output.shape());
  const auto n = static_cast<double>(batch_);
  for (std::size_t f = 0; f < features_; ++f) {
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (std::size_t b = 0; b < batch_; ++b) {
      const double dy = grad_output.at(b, f);
      sum_dy += dy;
      sum_dy_xhat += dy * x_hat_.at(b, f);
    }
    gamma_grad_[f] += static_cast<float>(sum_dy_xhat);
    beta_grad_[f] += static_cast<float>(sum_dy);
    if (last_training_) {
      // Training-mode statistics are functions of the batch:
      // dx = gamma*inv_std/n * (n*dy - sum(dy) - x_hat*sum(dy*x_hat)).
      const double scale = gamma_[f] * batch_inv_std_[f] / n;
      for (std::size_t b = 0; b < batch_; ++b) {
        const double dy = grad_output.at(b, f);
        grad_input.at(b, f) = static_cast<float>(
            scale * (n * dy - sum_dy - x_hat_.at(b, f) * sum_dy_xhat));
      }
    } else {
      // Inference-mode statistics are constants: dx = gamma*inv_std*dy.
      const double scale = gamma_[f] * batch_inv_std_[f];
      for (std::size_t b = 0; b < batch_; ++b) {
        grad_input.at(b, f) =
            static_cast<float>(scale * grad_output.at(b, f));
      }
    }
  }
  return grad_input;
}

std::vector<ParamRef> BatchNorm::params() {
  return {
      {name() + ".gamma", &gamma_, &gamma_grad_, /*mappable=*/false},
      {name() + ".beta", &beta_, &beta_grad_, /*mappable=*/false},
  };
}

std::size_t BatchNorm::output_features(std::size_t input_features) const {
  XB_CHECK(input_features == features_,
           "BatchNorm feature-count mismatch in topology");
  return features_;
}

}  // namespace xbarlife::nn
