// Numerical gradient checks: the backbone of trust in the training
// substrate. Every layer type participates in at least one checked
// topology.
#include "nn/gradient_check.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"

namespace xbarlife::nn {
namespace {

std::vector<std::int32_t> cycle_labels(std::size_t batch,
                                       std::size_t classes) {
  std::vector<std::int32_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    labels[i] = static_cast<std::int32_t>(i % classes);
  }
  return labels;
}

Tensor random_input(std::size_t batch, std::size_t features,
                    std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(Shape{batch, features});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  return x;
}

TEST(GradCheck, DenseOnly) {
  Rng rng(1);
  Network net("dense");
  net.add(std::make_unique<Dense>(6, 4, rng, "fc"));
  const auto r = check_gradients(net, random_input(3, 6, 2),
                                 cycle_labels(3, 4));
  EXPECT_GT(r.checked, 0u);
  EXPECT_LT(r.max_rel_error, 5e-2) << "abs=" << r.max_abs_error;
}

TEST(GradCheck, DenseReluStack) {
  Rng rng(2);
  Network net("mlp");
  net.add(std::make_unique<Dense>(5, 8, rng, "fc1"));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Dense>(8, 3, rng, "fc2"));
  const auto r = check_gradients(net, random_input(4, 5, 3),
                                 cycle_labels(4, 3));
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(GradCheck, TanhStack) {
  Rng rng(3);
  Network net("tanh");
  net.add(std::make_unique<Dense>(4, 6, rng, "fc1"));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Dense>(6, 2, rng, "fc2"));
  const auto r = check_gradients(net, random_input(2, 4, 4),
                                 cycle_labels(2, 2));
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(GradCheck, ConvStack) {
  Rng rng(5);
  Network net("conv");
  ConvGeometry g{2, 5, 5, 3, 1};
  net.add(std::make_unique<Conv2D>(g, 3, rng, "conv1"));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(3 * 5 * 5, 2, rng, "fc"));
  const auto r = check_gradients(net, random_input(2, 2 * 5 * 5, 6),
                                 cycle_labels(2, 2));
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(GradCheck, MaxPoolStack) {
  Rng rng(6);
  Network net("pool");
  ConvGeometry g{1, 6, 6, 3, 0};
  net.add(std::make_unique<Conv2D>(g, 2, rng, "conv1"));
  net.add(std::make_unique<Tanh>());
  PoolGeometry p{2, 4, 4};
  net.add(std::make_unique<MaxPool2D>(p, "pool"));
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(2 * 2 * 2, 3, rng, "fc"));
  const auto r = check_gradients(net, random_input(2, 36, 7),
                                 cycle_labels(2, 3));
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(GradCheck, LeNetStyleEndToEnd) {
  Rng rng(8);
  Network net("mini-lenet");
  ConvGeometry c1{1, 8, 8, 3, 0};
  net.add(std::make_unique<Conv2D>(c1, 2, rng, "conv1"));
  net.add(std::make_unique<Tanh>());
  PoolGeometry p1{2, 6, 6};
  net.add(std::make_unique<MaxPool2D>(p1, "pool1"));
  net.add(std::make_unique<Flatten>());
  net.add(std::make_unique<Dense>(2 * 3 * 3, 6, rng, "fc1"));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Dense>(6, 4, rng, "fc2"));
  const auto r = check_gradients(net, random_input(3, 64, 9),
                                 cycle_labels(3, 4), 1e-2);
  // Pooling argmax kinks make finite differences locally unreliable;
  // allow extra slack on the deepest stack.
  EXPECT_LT(r.max_rel_error, 0.15);
}

}  // namespace
}  // namespace xbarlife::nn
