// Int8 quantized inference: the requantize primitive (exhaustively swept
// against an exact reference, lib_nn's measure_quantisation idiom), the
// coding schemes, quantized_linear parity with the float GEMM, and the
// end-to-end LeNet-5 contract — accuracy within 0.5% of float and
// byte-identical output at any thread count.
#include "nn/quantized.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matmul.hpp"

namespace xbarlife::nn {
namespace {

// --- requantize --------------------------------------------------------

TEST(Requantize, ExhaustiveSweepWithinOneLsb) {
  // Sweep every int8-reachable accumulator against an exact double
  // reference over a grid of multipliers/biases/zero-points; the rounded
  // saturating fixed-point result must stay within 1 LSB everywhere.
  std::vector<std::int32_t> acc;
  for (std::int32_t v = -1 << 15; v <= 1 << 15; v += 7) {
    acc.push_back(v);
  }
  std::vector<std::int8_t> out(acc.size());
  for (const float multiplier : {0.25f, 0.01f, 0.0042f, 1.0f / 300.0f}) {
    for (const float bias : {0.0f, -3.7f, 12.25f}) {
      for (const std::int32_t zp : {0, -17, 42}) {
        requantize(acc.data(), acc.size(), multiplier, bias, zp,
                   out.data());
        for (std::size_t i = 0; i < acc.size(); ++i) {
          const double exact = std::clamp(
              static_cast<double>(acc[i]) * multiplier + bias + zp,
              -128.0, 127.0);
          EXPECT_LE(std::fabs(static_cast<double>(out[i]) - exact), 1.0)
              << "acc=" << acc[i] << " mult=" << multiplier
              << " bias=" << bias << " zp=" << zp;
        }
      }
    }
  }
}

TEST(Requantize, SaturatesInsteadOfWrapping) {
  const std::int32_t acc[2] = {1 << 20, -(1 << 20)};
  std::int8_t out[2] = {0, 0};
  requantize(acc, 2, 1.0f, 0.0f, 0, out);
  EXPECT_EQ(out[0], 127);
  EXPECT_EQ(out[1], -128);
}

// --- coding schemes ----------------------------------------------------

TEST(QuantizeWeights, PerChannelRoundTripWithinHalfStep) {
  Rng rng(3);
  Tensor w(Shape{17, 9});
  w.fill_gaussian(rng, 0.0f, 2.0f);
  const QuantizedTensor q = quantize_weights(w, QuantSpec{});
  ASSERT_TRUE(q.per_channel());
  ASSERT_EQ(q.scales.size(), 9u);
  for (std::size_t j = 0; j < 9; ++j) {
    EXPECT_EQ(q.zero_points[j], 0);  // symmetric scheme
    for (std::size_t i = 0; i < 17; ++i) {
      const float decoded =
          static_cast<float>(q.codes[i * 9 + j]) * q.scales[j];
      EXPECT_NEAR(decoded, w.at(i, j), 0.5f * q.scales[j] + 1e-7f);
    }
  }
}

TEST(QuantizeWeights, FewerLevelsCoarsenTheGrid) {
  Rng rng(4);
  Tensor w(Shape{8, 4});
  w.fill_gaussian(rng, 0.0f, 1.0f);
  QuantSpec coarse;
  coarse.levels = 8;  // qmax = 3
  const QuantizedTensor q = quantize_weights(w, coarse);
  for (const std::int8_t c : q.codes) {
    EXPECT_GE(c, -3);
    EXPECT_LE(c, 3);
  }
}

TEST(QuantizeWeights, ClampWindowBoundsTheCodes) {
  Tensor w(Shape{2, 1}, std::vector<float>{10.0f, -10.0f});
  QuantSpec spec;
  spec.clamp_lo = -1.0f;
  spec.clamp_hi = 1.0f;
  const QuantizedTensor q = quantize_weights(w, spec);
  // absmax after clamping is 1, so both saturate at +-qmax of that scale.
  EXPECT_NEAR(static_cast<float>(q.codes[0]) * q.scales[0], 1.0f, 1e-5f);
  EXPECT_NEAR(static_cast<float>(q.codes[1]) * q.scales[0], -1.0f, 1e-5f);
}

TEST(QuantizeActivations, ZeroDecodesExactly) {
  Tensor x(Shape{2, 3}, std::vector<float>{0.0f, 1.5f, 3.0f,  //
                                           0.5f, 2.0f, 2.5f});
  const QuantizedTensor q = quantize_activations(x);
  ASSERT_EQ(q.scales.size(), 1u);
  // 0 maps onto the zero-point exactly, so bias-free layers stay exact.
  EXPECT_EQ(q.codes[0], static_cast<std::int8_t>(q.zero_points[0]));
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float decoded =
        static_cast<float>(q.codes[i] - q.zero_points[0]) * q.scales[0];
    EXPECT_NEAR(decoded, x[i], 0.5f * q.scales[0] + 1e-7f);
    EXPECT_GE(q.codes[i], -127);  // -128 reserved: keeps int16 exact
  }
}

// --- quantized_linear --------------------------------------------------

TEST(QuantizedLinear, TracksFloatGemm) {
  Rng rng(11);
  Tensor a(Shape{13, 21});
  Tensor w(Shape{21, 7});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  w.fill_gaussian(rng, 0.0f, 0.5f);
  Tensor bias(Shape{1, 7});
  bias.fill_gaussian(rng, 0.0f, 0.1f);
  const Tensor ref = matmul(a, w);
  const QuantizedTensor qa = quantize_activations(a);
  const QuantizedTensor qw = quantize_weights(w, QuantSpec{});
  const Tensor got = quantized_linear(qa, qw, &bias);
  ASSERT_EQ(got.shape(), ref.shape());
  for (std::size_t i = 0; i < got.numel(); ++i) {
    // 8-bit grids on both operands, k=21 accumulated quantization noise:
    // ~sqrt(k) * (|a| dw + |w| da) with half-step errors stays well
    // inside 0.15 for unit-scale gaussians.
    EXPECT_NEAR(got[i], ref[i] + bias[i % 7], 0.15f) << "i=" << i;
  }
}

TEST(QuantizedLinear, BitIdenticalAcrossVariantsAndThreads) {
  Rng rng(12);
  Tensor a(Shape{33, 29});
  Tensor w(Shape{29, 15});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  w.fill_gaussian(rng, 0.0f, 1.0f);
  const QuantizedTensor qa = quantize_activations(a);
  const QuantizedTensor qw = quantize_weights(w, QuantSpec{});
  kernels::set_kernel("scalar");
  set_parallel_threads(1);
  const Tensor ref = quantized_linear(qa, qw, nullptr);
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    for (const std::size_t threads : {1u, 3u}) {
      set_parallel_threads(threads);
      EXPECT_TRUE(quantized_linear(qa, qw, nullptr) == ref)
          << name << " t=" << threads;
    }
  }
  set_parallel_threads(1);
  kernels::set_kernel("auto");
}

TEST(QuantizedLinear, ShapeAndSchemeChecksThrow) {
  Rng rng(13);
  Tensor a(Shape{4, 5});
  Tensor w(Shape{6, 3});  // inner mismatch
  a.fill_gaussian(rng, 0.0f, 1.0f);
  w.fill_gaussian(rng, 0.0f, 1.0f);
  const QuantizedTensor qa = quantize_activations(a);
  const QuantizedTensor qw = quantize_weights(w, QuantSpec{});
  EXPECT_THROW(quantized_linear(qa, qw, nullptr), Error);
}

// --- end-to-end: LeNet-5 -----------------------------------------------

struct TrainedLeNet {
  nn::Network net;
  data::TrainTest data;
};

/// Trains a small LeNet-5 on an easy synthetic task once for the suite.
TrainedLeNet& trained_lenet() {
  static TrainedLeNet* holder = [] {
    Rng rng(5);
    data::SyntheticSpec spec;
    spec.classes = 6;
    spec.train_per_class = 40;
    spec.test_per_class = 24;
    spec.channels = 1;
    spec.height = 16;
    spec.width = 16;
    spec.noise = 0.05;
    spec.seed = 17;
    auto* t = new TrainedLeNet{
        make_lenet5({1, 16, 16}, spec.classes, rng),
        data::make_synthetic(spec)};
    core::TrainConfig config;
    config.epochs = 6;
    config.batch = 16;
    config.learning_rate = 0.05;
    core::Trainer(t->net, t->data, config, nullptr).run();
    return t;
  }();
  return *holder;
}

TEST(QuantizedForward, LeNet5AccuracyWithinHalfPercentOfFloat) {
  TrainedLeNet& tl = trained_lenet();
  const std::vector<QuantSpec> specs(tl.net.mappable_weights().size(),
                                     QuantSpec{});
  const double float_acc =
      tl.net.evaluate(tl.data.test.images, tl.data.test.labels);
  const double quant_acc = tl.net.evaluate_quantized(
      tl.data.test.images, tl.data.test.labels, specs);
  EXPECT_GT(float_acc, 0.9);  // the task is easy by construction
  EXPECT_NEAR(quant_acc, float_acc, 0.005);
}

TEST(QuantizedForward, ByteIdenticalAtAnyThreadCount) {
  TrainedLeNet& tl = trained_lenet();
  const std::vector<QuantSpec> specs(tl.net.mappable_weights().size(),
                                     QuantSpec{});
  const Tensor batch = tl.data.test.images;
  set_parallel_threads(1);
  const Tensor serial = tl.net.infer(batch, specs);
  for (const std::size_t threads : {2u, 4u}) {
    set_parallel_threads(threads);
    EXPECT_TRUE(tl.net.infer(batch, specs) == serial)
        << "t=" << threads;
  }
  set_parallel_threads(1);
}

TEST(QuantizedForward, SpecCountMismatchThrows) {
  TrainedLeNet& tl = trained_lenet();
  const std::vector<QuantSpec> too_few(1, QuantSpec{});
  EXPECT_THROW(tl.net.infer(tl.data.test.images, too_few),
               Error);
}

}  // namespace
}  // namespace xbarlife
