#include "nn/model_zoo.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife::nn {
namespace {

TEST(ModelZoo, MlpShapes) {
  Rng rng(1);
  Network net = make_mlp(12, {8, 6}, 3, rng);
  Tensor x(Shape{2, 12}, 0.5f);
  Tensor y = net.infer(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_EQ(net.mappable_weights().size(), 3u);
}

TEST(ModelZoo, MlpNoHidden) {
  Rng rng(1);
  Network net = make_mlp(4, {}, 2, rng);
  EXPECT_EQ(net.layer_count(), 1u);
  Tensor y = net.infer(Tensor(Shape{1, 4}, 1.0f));
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
}

TEST(ModelZoo, LeNet5TopologyMatchesPaper) {
  // Table I: LeNet-5 has 2 convolutional and 3 fully-connected layers.
  Rng rng(2);
  const ImageSpec spec{3, 32, 32};
  Network net = make_lenet5(spec, 10, rng);
  const LayerMix mix = count_layer_mix(net);
  EXPECT_EQ(mix.conv, 2u);
  EXPECT_EQ(mix.dense, 3u);
  Tensor y = net.infer(Tensor(Shape{1, spec.features()}, 0.1f));
  EXPECT_EQ(y.shape(), (Shape{1, 10}));
}

TEST(ModelZoo, LeNet5On16x16) {
  Rng rng(2);
  const ImageSpec spec{3, 16, 16};
  Network net = make_lenet5(spec, 10, rng);
  Tensor y = net.infer(Tensor(Shape{2, spec.features()}, 0.1f));
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(ModelZoo, LeNet5RejectsTinyOrNonSquare) {
  Rng rng(2);
  EXPECT_THROW(make_lenet5({1, 8, 8}, 10, rng), InvalidArgument);
  EXPECT_THROW(make_lenet5({1, 16, 20}, 10, rng), InvalidArgument);
}

TEST(ModelZoo, Vgg16TopologyMatchesPaper) {
  // Table I: VGG-16 has 13 convolutional and 3 fully-connected layers.
  Rng rng(3);
  const ImageSpec spec{3, 32, 32};
  Network net = make_vgg16(spec, 100, /*width=*/1, rng);
  const LayerMix mix = count_layer_mix(net);
  EXPECT_EQ(mix.conv, 13u);
  EXPECT_EQ(mix.dense, 3u);
  EXPECT_EQ(net.mappable_weights().size(), 16u);
  Tensor y = net.infer(Tensor(Shape{1, spec.features()}, 0.1f));
  EXPECT_EQ(y.shape(), (Shape{1, 100}));
}

TEST(ModelZoo, Vgg16WidthScalesChannels) {
  Rng rng(3);
  const ImageSpec spec{3, 32, 32};
  Network w1 = make_vgg16(spec, 10, 1, rng);
  Network w2 = make_vgg16(spec, 10, 2, rng);
  EXPECT_GT(w2.parameter_count(), 2 * w1.parameter_count());
}

TEST(ModelZoo, Vgg16RejectsBadInputs) {
  Rng rng(3);
  EXPECT_THROW(make_vgg16({3, 24, 24}, 10, 1, rng), InvalidArgument);
  EXPECT_THROW(make_vgg16({3, 32, 48}, 10, 1, rng), InvalidArgument);
  EXPECT_THROW(make_vgg16({3, 32, 32}, 10, 0, rng), InvalidArgument);
}

TEST(ModelZoo, DeterministicGivenSeed) {
  Rng rng_a(9);
  Rng rng_b(9);
  Network a = make_lenet5({1, 16, 16}, 5, rng_a);
  Network b = make_lenet5({1, 16, 16}, 5, rng_b);
  auto wa = a.save_mappable_weights();
  auto wb = b.save_mappable_weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_TRUE(allclose(wa[i], wb[i]));
  }
}

}  // namespace
}  // namespace xbarlife::nn
