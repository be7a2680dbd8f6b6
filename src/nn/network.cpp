#include "nn/network.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace xbarlife::nn {

Network::Network(std::string name) : name_(std::move(name)) {}

Network& Network::add(LayerPtr layer) {
  XB_CHECK(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Layer& Network::layer(std::size_t i) {
  XB_CHECK(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  XB_CHECK(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

Tensor Network::forward(const Tensor& input, bool training) {
  XB_CHECK(!layers_.empty(), "network has no layers");
  Tensor x = layers_[0]->forward(input, training);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x, training);
  }
  return x;
}

Tensor Network::forward_quantized(const Tensor& input,
                                  std::span<const QuantSpec> specs) {
  XB_CHECK(!layers_.empty(), "network has no layers");
  Tensor x = input;
  std::size_t spec_index = 0;
  for (auto& l : layers_) {
    bool mappable = false;
    for (const ParamRef& p : l->params()) {
      mappable = mappable || p.mappable;
    }
    if (mappable) {
      XB_CHECK(spec_index < specs.size(),
               "forward_quantized needs one QuantSpec per mappable weight");
      x = l->forward_quantized(x, specs[spec_index]);
      ++spec_index;
    } else {
      x = l->forward(x, /*training=*/false);
    }
  }
  XB_CHECK(spec_index == specs.size(),
           "forward_quantized spec count mismatch");
  return x;
}

double Network::evaluate_quantized(const Tensor& inputs,
                                   std::span<const std::int32_t> labels,
                                   std::span<const QuantSpec> specs,
                                   std::size_t batch) {
  XB_CHECK(inputs.shape().rank() == 2, "evaluate expects (n, features)");
  XB_CHECK(batch > 0, "batch must be positive");
  const std::size_t n = inputs.shape()[0];
  XB_CHECK(labels.size() == n, "labels/inputs size mismatch");
  if (n == 0) {
    return 0.0;
  }
  const std::size_t features = inputs.shape()[1];
  std::size_t hits = 0;
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t count = std::min(batch, n - start);
    Tensor chunk(Shape{count, features},
                 std::vector<float>(
                     inputs.data() + start * features,
                     inputs.data() + (start + count) * features));
    Tensor logits = forward_quantized(chunk, specs);
    const double acc =
        accuracy(logits, labels.subspan(start, count));
    hits += static_cast<std::size_t>(
        acc * static_cast<double>(count) + 0.5);
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

void Network::backward(const Tensor& grad_output) {
  XB_CHECK(!layers_.empty(), "network has no layers");
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->backward(g);
  }
  layers_[0]->backward_params(g);
}

void Network::zero_grad() {
  for (auto& l : layers_) {
    l->zero_grad();
  }
}

std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> all;
  for (auto& l : layers_) {
    for (ParamRef& p : l->params()) {
      all.push_back(p);
    }
  }
  return all;
}

std::vector<MappableWeight> Network::mappable_weights() {
  std::vector<MappableWeight> out;
  for (auto& l : layers_) {
    for (ParamRef& p : l->params()) {
      if (!p.mappable) {
        continue;
      }
      MappableWeight mw;
      mw.index = out.size();
      mw.name = p.name;
      mw.layer_kind = l->kind();
      mw.value = p.value;
      mw.grad = p.grad;
      out.push_back(mw);
    }
  }
  return out;
}

TrainStats Network::train_batch(const Tensor& input,
                                std::span<const std::int32_t> labels,
                                SgdOptimizer& optimizer,
                                const Regularizer* regularizer) {
  zero_grad();
  Tensor logits = forward(input, /*training=*/true);
  TrainStats stats;
  stats.loss = loss_.forward(logits, labels);
  stats.accuracy = accuracy(logits, labels);
  backward(loss_.backward());
  if (regularizer != nullptr) {
    auto weights = mappable_weights();
    for (const MappableWeight& mw : weights) {
      stats.penalty += regularizer->penalty(*mw.value, mw.index);
      regularizer->add_gradient(*mw.value, mw.index, *mw.grad);
    }
  }
  optimizer.step(params());
  return stats;
}

double Network::compute_gradients(const Tensor& input,
                                  std::span<const std::int32_t> labels) {
  zero_grad();
  Tensor logits = forward(input, /*training=*/false);
  const double loss = loss_.forward(logits, labels);
  backward(loss_.backward());
  return loss;
}

double Network::evaluate(const Tensor& inputs,
                         std::span<const std::int32_t> labels,
                         std::size_t batch) {
  XB_CHECK(inputs.shape().rank() == 2, "evaluate expects (n, features)");
  XB_CHECK(batch > 0, "batch must be positive");
  const std::size_t n = inputs.shape()[0];
  XB_CHECK(labels.size() == n, "labels/inputs size mismatch");
  if (n == 0) {
    return 0.0;
  }
  const std::size_t features = inputs.shape()[1];
  std::size_t hits = 0;
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t count = std::min(batch, n - start);
    Tensor chunk(Shape{count, features},
                 std::vector<float>(
                     inputs.data() + start * features,
                     inputs.data() + (start + count) * features));
    Tensor logits = forward(chunk, /*training=*/false);
    const double acc =
        accuracy(logits, labels.subspan(start, count));
    hits += static_cast<std::size_t>(
        acc * static_cast<double>(count) + 0.5);
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

std::vector<Tensor> Network::save_mappable_weights() {
  std::vector<Tensor> snapshot;
  for (const MappableWeight& mw : mappable_weights()) {
    snapshot.push_back(*mw.value);
  }
  return snapshot;
}

void Network::load_mappable_weights(const std::vector<Tensor>& snapshot) {
  auto weights = mappable_weights();
  XB_CHECK(snapshot.size() == weights.size(),
           "snapshot layer count mismatch");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    XB_CHECK(snapshot[i].shape() == weights[i].value->shape(),
             "snapshot shape mismatch at " + weights[i].name);
    *weights[i].value = snapshot[i];
  }
}

std::size_t Network::parameter_count() {
  std::size_t n = 0;
  for (const ParamRef& p : params()) {
    n += p.value->numel();
  }
  return n;
}

std::string Network::summary() {
  std::ostringstream oss;
  oss << "Network '" << name_ << "' (" << layers_.size() << " layers, "
      << parameter_count() << " parameters)\n";
  for (auto& l : layers_) {
    oss << "  - " << l->name() << " [" << to_string(l->kind()) << "]";
    std::size_t nparams = 0;
    for (ParamRef& p : l->params()) {
      nparams += p.value->numel();
    }
    if (nparams > 0) {
      oss << " params=" << nparams;
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace xbarlife::nn
