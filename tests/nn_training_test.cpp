// Training-loop behaviour: convergence on separable data, the effect of
// the skewed regularizer on the weight distribution (the paper's Fig. 6 /
// Fig. 9 property), optimizer mechanics and network bookkeeping.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <memory>

#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/gradient_check.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"

namespace xbarlife::nn {
namespace {

TEST(SgdOptimizer, PlainStepMovesAgainstGradient) {
  SgdOptimizer opt({0.1, 0.0});
  Tensor w(Shape{2}, std::vector<float>{1.0f, -1.0f});
  Tensor g(Shape{2}, std::vector<float>{1.0f, -2.0f});
  std::vector<ParamRef> params{{"w", &w, &g, true}};
  opt.step(params);
  EXPECT_NEAR(w[0], 0.9f, 1e-6f);
  EXPECT_NEAR(w[1], -0.8f, 1e-6f);
}

TEST(SgdOptimizer, MomentumAccumulates) {
  SgdOptimizer opt({0.1, 0.5});
  Tensor w(Shape{1}, 0.0f);
  Tensor g(Shape{1}, 1.0f);
  std::vector<ParamRef> params{{"w", &w, &g, true}};
  opt.step(params);  // v = -0.1, w = -0.1
  opt.step(params);  // v = -0.15, w = -0.25
  EXPECT_NEAR(w[0], -0.25f, 1e-6f);
}

TEST(SgdOptimizer, RejectsBadConfig) {
  EXPECT_THROW(SgdOptimizer({0.0, 0.9}), InvalidArgument);
  EXPECT_THROW(SgdOptimizer({0.1, 1.0}), InvalidArgument);
}

TEST(Network, TrainBatchReducesLossOnSeparableData) {
  const auto data = data::make_blobs(3, 8, 40, 10, 0.3, 42);
  Rng rng(1);
  Network net = make_mlp(8, {16}, 3, rng);
  SgdOptimizer opt({0.1, 0.9});
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 15; ++epoch) {
    const data::Batch batch = data::make_batch(data.train, 0, 120);
    const TrainStats stats =
        net.train_batch(batch.images, batch.labels, opt, nullptr);
    if (epoch == 0) {
      first_loss = stats.loss;
    }
    last_loss = stats.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
  EXPECT_GT(net.evaluate(data.test.images, data.test.labels), 0.8);
}

TEST(Network, SkewedTrainingShiftsDistributionRight) {
  // Identical seeds and data: skewed training must yield visibly more
  // right-skew (long right tail after the mass moves toward omega < 0)
  // and a higher minimum weight than plain training.
  const auto data = data::make_blobs(4, 10, 40, 10, 0.4, 7);

  auto run = [&](Regularizer* reg) {
    Rng rng(5);
    Network net = make_mlp(10, {24}, 4, rng);
    SgdOptimizer opt({0.05, 0.9});
    for (int epoch = 0; epoch < 30; ++epoch) {
      const data::Batch batch = data::make_batch(data.train, 0, 160);
      net.train_batch(batch.images, batch.labels, opt, reg);
    }
    std::vector<double> weights;
    for (const MappableWeight& mw : net.mappable_weights()) {
      for (std::size_t i = 0; i < mw.value->numel(); ++i) {
        weights.push_back(static_cast<double>((*mw.value)[i]));
      }
    }
    return weights;
  };

  L2Regularizer plain(1e-4);
  SkewedL2Regularizer skewed(5e-2, 1e-3, -1.0);
  const auto w_plain = run(&plain);
  const auto w_skewed = run(&skewed);

  EXPECT_GT(skewness(std::span<const double>(w_skewed)),
            skewness(std::span<const double>(w_plain)) + 0.2);
  const Summary sp = summarize(std::span<const double>(w_plain));
  const Summary ss = summarize(std::span<const double>(w_skewed));
  EXPECT_GT(ss.min, sp.min);  // left tail got compressed
}

TEST(Network, MappableWeightsCarryLayerKind) {
  Rng rng(3);
  const ImageSpec spec{1, 16, 16};
  Network net = make_lenet5(spec, 4, rng);
  const auto mws = net.mappable_weights();
  ASSERT_EQ(mws.size(), 5u);  // 2 conv + 3 fc
  EXPECT_EQ(mws[0].layer_kind, LayerKind::kConv);
  EXPECT_EQ(mws[1].layer_kind, LayerKind::kConv);
  EXPECT_EQ(mws[2].layer_kind, LayerKind::kDense);
  EXPECT_EQ(mws[4].layer_kind, LayerKind::kDense);
  for (std::size_t i = 0; i < mws.size(); ++i) {
    EXPECT_EQ(mws[i].index, i);
  }
}

TEST(Network, EvaluateChunksMatchSinglePass) {
  // 90 samples: evaluate() takes a 64-sample chunk and a 26-sample one.
  const auto data = data::make_blobs(3, 6, 20, 30, 0.4, 9);
  Rng rng(4);
  Network net = make_mlp(6, {8}, 3, rng);
  ASSERT_GT(data.test.size(), 64u);
  const double acc_chunked = net.evaluate(data.test.images, data.test.labels);
  const double acc_one_pass =
      accuracy(net.infer(data.test.images), data.test.labels);
  EXPECT_NEAR(acc_chunked, acc_one_pass, 1e-9);
}

TEST(Network, ZeroGradClearsAllGradients) {
  Rng rng(5);
  Network net = make_mlp(4, {5}, 2, rng);
  Tensor x(Shape{2, 4}, 1.0f);
  const std::vector<std::int32_t> labels{0, 1};
  net.compute_gradients(x, labels);
  bool any_nonzero = false;
  for (const ParamRef& p : net.params()) {
    if (p.grad->min() < 0.0f || p.grad->max() > 0.0f) {
      any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  net.zero_grad();
  for (const ParamRef& p : net.params()) {
    EXPECT_EQ(p.grad->min(), 0.0f);
    EXPECT_EQ(p.grad->max(), 0.0f);
  }
}

TEST(Network, SummaryListsLayers) {
  Rng rng(6);
  Network net = make_mlp(4, {5}, 2, rng, "demo");
  const std::string s = net.summary();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("fc1"), std::string::npos);
  EXPECT_NE(s.find("dense"), std::string::npos);
}

TEST(Network, ParameterCount) {
  Rng rng(7);
  Network net = make_mlp(4, {5}, 2, rng);
  // fc1: 4*5+5, fc_out: 5*2+2
  EXPECT_EQ(net.parameter_count(), 20u + 5u + 10u + 2u);
}

}  // namespace
}  // namespace xbarlife::nn
