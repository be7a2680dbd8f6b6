#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"

namespace xbarlife::nn {
namespace {

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x(Shape{1, 4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = relu.infer(x, nullptr);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLULayer, BackwardMasksGradient) {
  ReLU relu;
  Tensor x(Shape{1, 3}, std::vector<float>{-1.0f, 1.0f, 2.0f});
  relu.forward(x);
  Tensor g(Shape{1, 3}, 1.0f);
  Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(TanhLayer, ForwardValues) {
  // Nine values: one 8-lane block and a tail on the vector variants, which
  // must all return std::tanh's bits.
  Tanh t;
  const std::vector<float> v{0.0f, 1.0f,  -1.0f, 0.25f, -3.0f,
                             21.9f, 22.0f, -1e-20f, 0.5f};
  Tensor x(Shape{1, v.size()}, v);
  Tensor y = t.infer(x, nullptr);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(y[i], std::tanh(v[i])) << "x=" << v[i];
  }
}

TEST(FlattenLayer, PassThrough) {
  Flatten f;
  Tensor x(Shape{2, 6}, 3.0f);
  EXPECT_TRUE(allclose(f.forward(x), x));
  EXPECT_TRUE(allclose(f.backward(x), x));
  EXPECT_EQ(f.output_features(6), 6u);
}

TEST(DenseLayer, ForwardComputesAffine) {
  Rng rng(1);
  Dense dense(2, 3, rng, "fc");
  // Overwrite weights with known values.
  Tensor& w = dense.weight();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      w.at(i, j) = static_cast<float>(i + 1);
    }
  }
  Tensor x(Shape{1, 2}, std::vector<float>{1.0f, 2.0f});
  Tensor y = dense.infer(x, nullptr);
  // y_j = 1*1 + 2*2 = 5 for every j (bias zero).
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(y.at(0, j), 5.0f);
  }
}

TEST(DenseLayer, ParamsExposeMappableWeight) {
  Rng rng(1);
  Dense dense(4, 2, rng, "fc");
  auto params = dense.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_TRUE(params[0].mappable);
  EXPECT_EQ(params[0].name, "fc.weight");
  EXPECT_FALSE(params[1].mappable);
  EXPECT_EQ(params[0].value->shape(), (Shape{4, 2}));
}

TEST(DenseLayer, WrongInputWidthThrows) {
  Rng rng(1);
  Dense dense(4, 2, rng, "fc");
  EXPECT_THROW(dense.infer(Tensor(Shape{1, 3}), nullptr), InvalidArgument);
  EXPECT_THROW(dense.output_features(3), InvalidArgument);
}

TEST(ConvLayer, OutputShapeAndChannelMajorLayout) {
  Rng rng(2);
  ConvGeometry g{1, 4, 4, 3, 0};
  Conv2D conv(g, 2, rng, "conv");
  Tensor x(Shape{1, 16}, 1.0f);
  Tensor y = conv.infer(x, nullptr);
  EXPECT_EQ(y.shape(), (Shape{1, 2 * 2 * 2}));
  EXPECT_EQ(conv.output_features(16), 8u);
}

TEST(ConvLayer, KnownConvolutionValue) {
  Rng rng(2);
  ConvGeometry g{1, 3, 3, 3, 0};
  Conv2D conv(g, 1, rng, "conv");
  auto params = conv.params();
  // All-ones kernel, zero bias: output = sum of image.
  params[0].value->fill(1.0f);
  params[1].value->fill(0.0f);
  Tensor x(Shape{1, 9}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7, 8});
  Tensor y = conv.infer(x, nullptr);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 36.0f);
}

TEST(ConvLayer, ParallelBatchMatchesSerialBitwise) {
  // Forward fans out over the batch and backward merges per-sample
  // gradient partials in sample order: outputs and gradients must be
  // bit-identical at any thread count.
  Rng rng(31);
  ConvGeometry g{2, 6, 6, 3, 1};
  Conv2D conv(g, 4, rng, "conv");
  Tensor x(Shape{5, 2 * 6 * 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);

  set_parallel_threads(1);
  const Tensor y_serial = conv.forward(x);
  Tensor gy(y_serial.shape(), 0.5f);
  const Tensor gx_serial = conv.backward(gy);
  auto params = conv.params();
  const Tensor wgrad_serial = *params[0].grad;
  params[0].grad->fill(0.0f);  // backward accumulates; reset between runs
  params[1].grad->fill(0.0f);

  set_parallel_threads(4);
  const Tensor y_threaded = conv.forward(x);
  const Tensor gx_threaded = conv.backward(gy);
  set_parallel_threads(1);

  EXPECT_TRUE(y_threaded == y_serial);
  EXPECT_TRUE(gx_threaded == gx_serial);
  EXPECT_TRUE(*params[0].grad == wgrad_serial);
}

TEST(ConvLayer, BackwardFailsClosedWithoutMatchingForward) {
  // The gradients re-gather patches from the last forward's input, so
  // a backward with no forward, or for another batch, must throw.
  Rng rng(32);
  ConvGeometry g{2, 6, 6, 3, 1};
  Conv2D conv(g, 4, rng, "conv");
  const Tensor gy3(Shape{3, 4 * 6 * 6}, 0.5f);
  EXPECT_THROW(conv.backward(gy3), InvalidArgument);
  EXPECT_THROW(conv.backward_params(gy3), InvalidArgument);

  conv.forward(Tensor(Shape{2, 2 * 6 * 6}, 1.0f));
  EXPECT_THROW(conv.backward(gy3), InvalidArgument);
  EXPECT_THROW(conv.backward_params(gy3), InvalidArgument);
  EXPECT_THROW(conv.backward(Tensor(Shape{2, 4 * 6 * 6 - 1})),
               InvalidArgument);
  EXPECT_NO_THROW(conv.backward(Tensor(Shape{2, 4 * 6 * 6}, 0.5f)));
  EXPECT_NO_THROW(conv.backward_params(Tensor(Shape{2, 4 * 6 * 6}, 0.5f)));
}

TEST(MaxPoolLayer, SelectsWindowMaxima) {
  PoolGeometry g{1, 4, 4};
  MaxPool2D pool(g, "pool");
  Tensor x(Shape{1, 16});
  for (std::size_t i = 0; i < 16; ++i) {
    x[i] = static_cast<float>(i);
  }
  Tensor y = pool.infer(x, nullptr);
  EXPECT_EQ(y.shape(), (Shape{1, 4}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  EXPECT_FLOAT_EQ(y[2], 13.0f);
  EXPECT_FLOAT_EQ(y[3], 15.0f);
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax) {
  PoolGeometry g{1, 2, 2};
  MaxPool2D pool(g, "pool");
  Tensor x(Shape{1, 4}, std::vector<float>{1.0f, 9.0f, 3.0f, 4.0f});
  pool.forward(x);
  Tensor gy(Shape{1, 1}, 5.0f);
  Tensor gx = pool.backward(gy);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPoolLayer, AllNegativeInfinityWindowKeepsGradientInside) {
  // Channel 1's only window holds no finite value: its output is -inf
  // and its gradient must land inside that window, not on channel 0.
  PoolGeometry g{2, 2, 2};
  MaxPool2D pool(g, "pool");
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape{1, 8},
           std::vector<float>{1.0f, 9.0f, 3.0f, 4.0f, -inf, -inf, -inf, -inf});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 9.0f);
  EXPECT_EQ(y[1], -inf);
  Tensor gx =
      pool.backward(Tensor(Shape{1, 2}, std::vector<float>{5.0f, 7.0f}));
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
  float channel1 = 0.0f;
  for (std::size_t i = 4; i < 8; ++i) {
    channel1 += gx[i];
  }
  EXPECT_FLOAT_EQ(channel1, 7.0f);
}

TEST(PoolGeometry, Validation) {
  PoolGeometry bad{0, 4, 4};
  EXPECT_THROW(bad.validate(), InvalidArgument);
  PoolGeometry too_small{1, 1, 4};  // one row: no 2x2 window fits
  EXPECT_THROW(too_small.validate(), InvalidArgument);
}

TEST(LayerKind, ToString) {
  EXPECT_EQ(to_string(LayerKind::kDense), "dense");
  EXPECT_EQ(to_string(LayerKind::kConv), "conv");
  EXPECT_EQ(to_string(LayerKind::kPool), "pool");
  EXPECT_EQ(to_string(LayerKind::kActivation), "activation");
  EXPECT_EQ(to_string(LayerKind::kFlatten), "flatten");
}

}  // namespace
}  // namespace xbarlife::nn
