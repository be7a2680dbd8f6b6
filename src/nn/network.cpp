#include "nn/network.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace xbarlife::nn {

namespace {

/// Samples per chunk of an accuracy evaluation.
constexpr std::size_t kEvalChunk = 64;

/// Mean accuracy of `net.infer(chunk, specs)`'s logits over `inputs`,
/// evaluated in chunks of kEvalChunk rows: the one loop behind evaluate()
/// and evaluate_quantized().
double evaluate_chunks(const Network& net, const Tensor& inputs,
                       std::span<const std::int32_t> labels,
                       std::span<const QuantSpec> specs) {
  XB_CHECK(inputs.shape().rank() == 2, "evaluate expects (n, features)");
  const std::size_t n = inputs.shape()[0];
  XB_CHECK(labels.size() == n, "labels/inputs size mismatch");
  if (n == 0) {
    return 0.0;
  }
  const std::size_t features = inputs.shape()[1];
  std::size_t hits = 0;
  for (std::size_t start = 0; start < n; start += kEvalChunk) {
    const std::size_t count = std::min(kEvalChunk, n - start);
    Tensor chunk(Shape{count, features},
                 std::vector<float>(
                     inputs.data() + start * features,
                     inputs.data() + (start + count) * features));
    const Tensor logits = net.infer(chunk, specs);
    const double acc =
        accuracy(logits, labels.subspan(start, count));
    hits += static_cast<std::size_t>(
        acc * static_cast<double>(count) + 0.5);
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

}  // namespace

Network::Network(std::string name) : name_(std::move(name)) {}

Network& Network::add(LayerPtr layer) {
  XB_CHECK(layer != nullptr, "cannot add null layer");
  const std::vector<ParamRef> params = layer->params();
  params_.insert(params_.end(), params.begin(), params.end());
  if (std::ranges::any_of(params, &ParamRef::mappable)) {
    spec_layers_.push_back(layers_.size());
  }
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

Tensor Network::infer(const Tensor& input,
                      std::span<const QuantSpec> specs) const {
  XB_CHECK(!layers_.empty(), "network has no layers");
  XB_CHECK(specs.empty() || specs.size() == spec_layers_.size(),
           "infer needs one QuantSpec per mappable weight");
  std::size_t k = 0;  // the next spec
  const auto spec_of = [&](std::size_t i) -> const QuantSpec* {
    return k < specs.size() && spec_layers_[k] == i ? &specs[k++] : nullptr;
  };
  Tensor x = layers_[0]->infer(input, spec_of(0));
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->infer(x, spec_of(i));
  }
  return x;
}

Tensor Network::forward(const Tensor& input) {
  XB_CHECK(!layers_.empty(), "network has no layers");
  Tensor x = layers_[0]->forward(input);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x);
  }
  return x;
}

double Network::evaluate(const Tensor& inputs,
                         std::span<const std::int32_t> labels) const {
  return evaluate_chunks(*this, inputs, labels, {});
}

double Network::evaluate_quantized(const Tensor& inputs,
                                   std::span<const std::int32_t> labels,
                                   std::span<const QuantSpec> specs) const {
  return evaluate_chunks(*this, inputs, labels, specs);
}

void Network::backward(const Tensor& grad_output) {
  XB_CHECK(!layers_.empty(), "network has no layers");
  for (auto& l : layers_) {
    l->overwrite_grads();
  }
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
  Tensor logits = forward(input);
  TrainStats stats;
  stats.loss = loss_.forward(logits, labels);
  stats.accuracy = accuracy(logits, labels);
  backward(loss_.backward());
  // Mappable weights take the regularizer's term under their index in
  // mappable_weights() order; the penalty sums them in that order.
  std::size_t index = 0;
  for (const ParamRef& p : params_) {
    if (regularizer == nullptr || !p.mappable) {
      optimizer.update(*p.value, *p.grad, nullptr);
      continue;
    }
    const RegularizerTerm term = regularizer->term(*p.value, index++);
    stats.penalty += term.penalty(optimizer.update(*p.value, *p.grad, &term));
  }
  return stats;
}

double Network::compute_gradients(const Tensor& input,
                                  std::span<const std::int32_t> labels) {
  Tensor logits = forward(input);
  const double loss = loss_.forward(logits, labels);
  backward(loss_.backward());
  return loss;
}

std::vector<Tensor> Network::save_mappable_weights() {
  std::vector<Tensor> snapshot;
  for (const MappableWeight& mw : mappable_weights()) {
    snapshot.push_back(*mw.value);
  }
  return snapshot;
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
