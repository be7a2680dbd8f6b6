#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "support/blobs.hpp"
#include "support/tensor_oracles.hpp"

namespace xbarlife::core {
namespace {

data::TrainTest blob_data() {
  return data::make_blobs(3, 10, 40, 12, 0.3, 11);
}

TEST(Trainer, LossDecreasesOverEpochs) {
  const auto data = blob_data();
  Rng rng(1);
  nn::Network net = nn::make_mlp(10, {16}, 3, rng);
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch = 20;
  cfg.learning_rate = 0.05;
  const TrainHistory h = Trainer(net, data, cfg, nullptr).run();
  ASSERT_EQ(h.epochs.size(), 8u);
  EXPECT_LT(h.epochs.back().loss, h.epochs.front().loss);
  EXPECT_GT(h.final_test_accuracy, 0.7);
  EXPECT_EQ(h.final_test_accuracy, h.epochs.back().test_accuracy);
}

TEST(Trainer, L2RegularizerReportsPenalty) {
  const auto data = blob_data();
  Rng rng(2);
  nn::Network net = nn::make_mlp(10, {8}, 3, rng);
  nn::L2Regularizer reg(1e-2);
  TrainConfig cfg;
  cfg.epochs = 2;
  const TrainHistory h = Trainer(net, data, cfg, &reg).run();
  EXPECT_GT(h.epochs[0].penalty, 0.0);
}

TEST(Trainer, SkewedTrainingFreezesOmegasAtConfiguredEpoch) {
  const auto data = blob_data();
  // The omegas freeze after the first epoch: a one-epoch run leaves them
  // at omega_factor * stddev of its trained weights, and a longer run
  // keeps exactly those values.
  const auto train_skewed = [&](std::size_t epochs,
                                nn::SkewedL2Regularizer& reg) {
    Rng rng(3);
    nn::Network net = nn::make_mlp(10, {8}, 3, rng);
    TrainConfig cfg;
    cfg.epochs = epochs;
    Trainer(net, data, cfg, &reg).run();
    return net;
  };
  nn::SkewedL2Regularizer one_epoch(5e-2, 1e-3, -1.0);
  nn::Network net1 = train_skewed(1, one_epoch);
  const nn::SkewedL2Regularizer live(5e-2, 1e-3, -1.0);
  const double omega1 = live.omega(*net1.mappable_weights()[0].value, 0);
  ASSERT_FALSE(one_epoch.frozen_omegas().empty());
  ASSERT_TRUE(one_epoch.frozen_omegas()[0].has_value());
  EXPECT_DOUBLE_EQ(*one_epoch.frozen_omegas()[0], omega1);

  nn::SkewedL2Regularizer reg(5e-2, 1e-3, -1.0);
  nn::Network net = train_skewed(4, reg);
  // After training, the omegas must be pinned: mutating the weights must
  // not change them.
  const auto mws = net.mappable_weights();
  EXPECT_NE(live.omega(*mws[0].value, 0), omega1);
  EXPECT_DOUBLE_EQ(reg.omega(*mws[0].value, 0), omega1);
  mws[0].value->scale_(10.0f);
  EXPECT_DOUBLE_EQ(reg.omega(*mws[0].value, 0), omega1);
}

TEST(Trainer, RejectsBadConfig) {
  const auto data = blob_data();
  Rng rng(5);
  nn::Network net = nn::make_mlp(10, {8}, 3, rng);
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(Trainer(net, data, cfg, nullptr), InvalidArgument);
  cfg = TrainConfig{};
  cfg.batch = 0;
  EXPECT_THROW(Trainer(net, data, cfg, nullptr), InvalidArgument);
}

TEST(Trainer, DeterministicGivenConfig) {
  const auto data = blob_data();
  auto run = [&]() {
    Rng rng(6);
    nn::Network net = nn::make_mlp(10, {8}, 3, rng);
    TrainConfig cfg;
    cfg.epochs = 3;
    Trainer(net, data, cfg, nullptr).run();
    return net.save_mappable_weights();
  };
  const auto a = run();
  const auto b = run();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(allclose(a[i], b[i]));
  }
}

TEST(ExperimentHelpers, TrainModelProducesSkewedWeights) {
  ExperimentConfig cfg;
  cfg.model = ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 30;
  cfg.dataset.test_per_class = 8;
  cfg.dataset.noise = 0.2;
  cfg.train_config.epochs = 6;
  cfg.skew = {5e-2, 1e-3, -1.0};

  TrainedModel plain = train_model(cfg, /*skewed=*/false);
  TrainedModel skewed = train_model(cfg, /*skewed=*/true);

  auto collect = [](nn::Network& net) {
    std::vector<double> all;
    for (const nn::MappableWeight& mw : net.mappable_weights()) {
      for (std::size_t i = 0; i < mw.value->numel(); ++i) {
        all.push_back(static_cast<double>((*mw.value)[i]));
      }
    }
    return all;
  };
  const auto wp = collect(plain.network);
  const auto ws = collect(skewed.network);
  EXPECT_GT(skewness(std::span<const double>(ws)),
            skewness(std::span<const double>(wp)));
  // Both flavours should still learn the task.
  EXPECT_GT(plain.history.final_test_accuracy, 0.6);
  EXPECT_GT(skewed.history.final_test_accuracy, 0.6);
}

TEST(ExperimentHelpers, BuildModelVariants) {
  ExperimentConfig cfg;
  cfg.dataset.channels = 3;
  cfg.dataset.height = 32;
  cfg.dataset.width = 32;
  cfg.dataset.classes = 10;
  Rng rng(1);
  cfg.model = ExperimentConfig::Model::kLeNet5;
  EXPECT_EQ(build_model(cfg, rng).name(), "lenet5");
  cfg.model = ExperimentConfig::Model::kVgg16;
  cfg.vgg_width = 1;
  EXPECT_EQ(build_model(cfg, rng).name(), "vgg16");
  cfg.model = ExperimentConfig::Model::kMlp;
  EXPECT_EQ(build_model(cfg, rng).name(), "mlp");
}

TEST(ExperimentHelpers, DefaultConfigsAreConsistent) {
  const ExperimentConfig lenet = lenet_experiment_config();
  EXPECT_EQ(lenet.model, ExperimentConfig::Model::kLeNet5);
  EXPECT_EQ(lenet.dataset.classes, 10u);
  // Table II: LeNet-5 penalty is strongly asymmetric.
  EXPECT_GT(lenet.skew.lambda1, 10.0 * lenet.skew.lambda2);

  const ExperimentConfig vgg = vgg_experiment_config();
  EXPECT_EQ(vgg.model, ExperimentConfig::Model::kVgg16);
  EXPECT_EQ(vgg.dataset.classes, 100u);
  // Table II: VGG-16 uses lambda1 == lambda2.
  EXPECT_DOUBLE_EQ(vgg.skew.lambda1, vgg.skew.lambda2);
}

}  // namespace
}  // namespace xbarlife::core
