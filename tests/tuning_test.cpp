// HardwareNetwork deployment and online-tuner behaviour (Eq. (5)).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "tuning/online_tuner.hpp"

namespace xbarlife::tuning {
namespace {

device::DeviceParams dev() { return device::DeviceParams{}; }

aging::AgingParams quiet_aging() {
  aging::AgingParams a;
  a.a_f = 0.0;
  a.a_g = 0.0;
  a.thermal_crosstalk = 0.0;
  return a;
}

struct Fixture {
  data::TrainTest data;
  nn::Network net;

  explicit Fixture(std::uint64_t seed = 1)
      : data(data::make_blobs(4, 8, 30, 10, 0.25, seed)),
        net(make_network(seed)) {
    // Train to a usable accuracy so mapping effects are measurable.
    nn::SgdOptimizer opt({0.1, 0.9});
    for (int epoch = 0; epoch < 25; ++epoch) {
      const data::Batch batch = data::make_batch(data.train, 0, 120);
      net.train_batch(batch.images, batch.labels, opt, nullptr);
    }
  }

  static nn::Network make_network(std::uint64_t seed) {
    Rng rng(seed);
    return nn::make_mlp(8, {16}, 4, rng);
  }
};

TEST(HardwareNetwork, BuildsOneCrossbarPerMappableWeight) {
  Fixture f;
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  EXPECT_EQ(hw.layer_count(), 2u);
  EXPECT_EQ(hw.layer(0).xbar->rows(), 8u);
  EXPECT_EQ(hw.layer(0).xbar->cols(), 16u);
  EXPECT_EQ(hw.layer(1).xbar->rows(), 16u);
  EXPECT_EQ(hw.layer(1).xbar->cols(), 4u);
  EXPECT_THROW(hw.layer(2), InvalidArgument);
}

TEST(HardwareNetwork, DeployWritesEffectiveWeightsIntoNetwork) {
  Fixture f;
  const double sw_acc =
      f.net.evaluate(f.data.test.images, f.data.test.labels);
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 64);
  const double hw_acc =
      f.net.evaluate(f.data.test.images, f.data.test.labels);
  // 64 levels: accuracy close to software.
  EXPECT_GT(hw_acc, sw_acc - 0.15);
  // The network no longer holds the exact software weights.
  const auto targets = hw.targets();
  const auto current = f.net.save_mappable_weights();
  EXPECT_FALSE(allclose(targets[0], current[0], 1e-7f));
}

TEST(HardwareNetwork, AgingAwareDeployNeedsEvaluator) {
  Fixture f;
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  EXPECT_THROW(hw.deploy(MappingPolicy::kAgingAware, 16, nullptr),
               InvalidArgument);
}

TEST(HardwareNetwork, AgingAwareDeployOnFreshArrayMatchesFresh) {
  Fixture f;
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  const data::Dataset eval_slice = f.data.test.head(40);
  auto evaluator = [&]() {
    return f.net.evaluate(eval_slice.images, eval_slice.labels);
  };
  hw.deploy(MappingPolicy::kAgingAware, 16, evaluator);
  EXPECT_DOUBLE_EQ(hw.layer(0).plan->resistance_range().r_hi,
                   dev().r_max_fresh);
}

TEST(HardwareNetwork, SyncBeforeDeployThrows) {
  Fixture f;
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  EXPECT_THROW(hw.sync_network_to_hardware(), InvalidArgument);
}

TEST(HardwareNetwork, PulseAndAgingAccounting) {
  Fixture f;
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  EXPECT_EQ(hw.total_pulses(), 0u);
  hw.deploy(MappingPolicy::kFresh, 16);
  EXPECT_GT(hw.total_pulses(), 0u);
  const auto stats = hw.aging_stats();
  EXPECT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].total_pulses, 0u);
}

TEST(OnlineTuner, ValidatesConfig) {
  TuningConfig bad;
  bad.max_iterations = 0;
  EXPECT_THROW(OnlineTuner{bad}, InvalidArgument);
  bad = TuningConfig{};
  bad.target_accuracy = 0.0;
  EXPECT_THROW(OnlineTuner{bad}, InvalidArgument);
  bad = TuningConfig{};
  bad.step_fraction = 0.0;
  EXPECT_THROW(OnlineTuner{bad}, InvalidArgument);
}

TEST(OnlineTuner, ConvergesImmediatelyWhenMappingSuffices) {
  Fixture f;
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 64);
  TuningConfig tc;
  tc.target_accuracy = 0.1;  // trivially satisfied
  tc.eval_samples = 40;
  OnlineTuner tuner(tc);
  const TuningResult r = tuner.tune(hw, f.data.train, f.data.test);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.pulses, 0u);
}

TEST(OnlineTuner, RecoversCoarseQuantizationLoss) {
  // With very few levels the mapped accuracy drops; sign-pulse tuning
  // must claw most of it back.
  Fixture f(3);
  const double sw_acc =
      f.net.evaluate(f.data.test.images, f.data.test.labels);
  ASSERT_GT(sw_acc, 0.8);
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 6);
  TuningConfig tc;
  tc.target_accuracy = 0.95 * sw_acc;
  tc.max_iterations = 120;
  tc.eval_samples = 40;
  tc.batch = 24;
  tc.min_grad_fraction = 1.0;
  OnlineTuner tuner(tc);
  const TuningResult r = tuner.tune(hw, f.data.train, f.data.test);
  EXPECT_GE(r.final_accuracy, r.start_accuracy);
  EXPECT_GT(r.pulses, 0u);
  if (r.converged) {
    EXPECT_GE(r.final_accuracy, tc.target_accuracy);
  }
}

TEST(OnlineTuner, PulsesAgeTheArray) {
  // Heavily overlapping blobs: 100% accuracy is impossible, so an
  // unreachable target forces the tuner to run its full budget.
  data::TrainTest noisy = data::make_blobs(4, 8, 30, 10, 1.2, 44);
  Rng rng(4);
  nn::Network net = nn::make_mlp(8, {16}, 4, rng);
  nn::SgdOptimizer opt({0.1, 0.9});
  for (int epoch = 0; epoch < 10; ++epoch) {
    const data::Batch batch = data::make_batch(noisy.train, 0, 120);
    net.train_batch(batch.images, batch.labels, opt, nullptr);
  }
  aging::AgingParams a;  // real aging on
  HardwareNetwork hw(net, dev(), a);
  hw.deploy(MappingPolicy::kFresh, 6);
  const auto stats_before = hw.aging_stats();
  TuningConfig tc;
  tc.target_accuracy = 0.999;  // unreachable: forces iterations
  tc.max_iterations = 5;
  tc.eval_samples = 40;
  OnlineTuner tuner(tc);
  const TuningResult r = tuner.tune(hw, noisy.train, noisy.test);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 5u);
  const auto stats_after = hw.aging_stats();
  EXPECT_GT(stats_after[0].mean_stress, stats_before[0].mean_stress);
}

TEST(OnlineTuner, StuckCellsAreNotPulsed) {
  Fixture f(5);
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 8);
  // Mark every cell of layer 0 stuck; tuning must leave it untouched.
  std::fill(hw.layer(0).stuck.begin(), hw.layer(0).stuck.end(), 1);
  const auto pulses_before = hw.layer(0).xbar->total_pulses();
  TuningConfig tc;
  tc.target_accuracy = 0.999;
  tc.max_iterations = 3;
  tc.eval_samples = 40;
  OnlineTuner tuner(tc);
  tuner.tune(hw, f.data.train, f.data.test);
  EXPECT_EQ(hw.layer(0).xbar->total_pulses(), pulses_before);
}

TEST(HardwareNetwork, MixedTopologyAlignsLayersWithMappableWeights) {
  // LeNet-5 interleaves pool / activation / flatten layers (no mappable
  // weights) with conv / dense ones. Deployed layer li must line up with
  // mappable_weights()[li], not with the network's layer index — the
  // tuner's apply_sign_updates indexes both arrays with the same li.
  Rng rng(7);
  nn::Network net =
      nn::make_lenet5(nn::ImageSpec{1, 16, 16}, 4, rng);
  auto mappable = net.mappable_weights();
  ASSERT_GT(net.layer_count(), mappable.size());  // non-mappable present
  HardwareNetwork hw(net, dev(), quiet_aging());
  ASSERT_EQ(hw.layer_count(), mappable.size());
  for (std::size_t li = 0; li < hw.layer_count(); ++li) {
    const DeployedLayer& layer = hw.layer(li);
    EXPECT_EQ(layer.name, mappable[li].name) << "li=" << li;
    EXPECT_EQ(layer.weight_index, mappable[li].index) << "li=" << li;
    EXPECT_EQ(layer.kind, mappable[li].layer_kind) << "li=" << li;
    EXPECT_EQ(layer.xbar->rows(), mappable[li].value->shape()[0]);
    EXPECT_EQ(layer.xbar->cols(), mappable[li].value->shape()[1]);
  }
  // Deploy + a tuning step must run through the mixed topology: a
  // misalignment would pulse the wrong crossbar or throw on shapes.
  hw.deploy(MappingPolicy::kFresh, 8);
  data::TrainTest imgs = data::make_synthetic(
      {4, 8, 4, 1, 16, 16, 0.2, 4, /*seed=*/11});
  TuningConfig tc;
  tc.target_accuracy = 0.999;  // unreachable: force a pulse iteration
  tc.max_iterations = 2;
  tc.eval_samples = 16;
  tc.batch = 8;
  tc.min_grad_fraction = 0.0;
  OnlineTuner tuner(tc);
  const TuningResult r = tuner.tune(hw, imgs.train, imgs.test);
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_GT(r.pulses, 0u);
}

/// Overlapping blobs + a lightly trained MLP: eval accuracy cannot reach
/// 0.999, so an unreachable tuning target always runs the full budget.
struct NoisyFixture {
  data::TrainTest data;
  nn::Network net;

  explicit NoisyFixture(std::uint64_t seed)
      : data(data::make_blobs(4, 8, 30, 10, 1.2, seed)),
        net(Fixture::make_network(seed)) {
    nn::SgdOptimizer opt({0.1, 0.9});
    for (int epoch = 0; epoch < 10; ++epoch) {
      const data::Batch batch = data::make_batch(data.train, 0, 120);
      net.train_batch(batch.images, batch.labels, opt, nullptr);
    }
  }
};

TEST(OnlineTuner, TuneSetSmallerThanBatchWrapsWithoutEmptyBatch) {
  // The rolling-minibatch cursor must reset before slicing: with a tuning
  // set smaller than the batch, every iteration gets the whole (non-empty)
  // set, and the cursor wraps instead of running off the end.
  NoisyFixture f(8);
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 6);
  const data::Dataset tiny = f.data.train.head(10);
  TuningConfig tc;
  tc.target_accuracy = 0.999;  // unreachable: forces full budget
  tc.max_iterations = 6;
  tc.batch = 16;  // larger than the tuning set
  tc.eval_samples = 40;
  OnlineTuner tuner(tc);
  const TuningResult r = tuner.tune(hw, tiny, f.data.test);
  // All six iterations ran gradients on real data; an empty batch would
  // have thrown inside make_batch / compute_gradients.
  EXPECT_EQ(r.iterations, 6u);
}

TEST(OnlineTuner, CursorWrapsMidSetAcrossSessions) {
  // Batch 4 over a 10-sample set: iterations slice [0,4) [4,8) [8,10)
  // [0,4) ... — the tail slice is short but never empty, including when
  // the cursor survives into a second tune() call.
  NoisyFixture f(9);
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 6);
  const data::Dataset tiny = f.data.train.head(10);
  TuningConfig tc;
  tc.target_accuracy = 0.999;
  tc.max_iterations = 4;  // crosses the wrap at cursor == 10
  tc.batch = 4;
  tc.eval_samples = 40;
  OnlineTuner tuner(tc);
  EXPECT_EQ(tuner.tune(hw, tiny, f.data.test).iterations, 4u);
  // Second session reuses the same tuner (and cursor) — still no empty
  // batch.
  EXPECT_EQ(tuner.tune(hw, tiny, f.data.test).iterations, 4u);
}

TEST(OnlineTuner, EmptyDatasetsRejected) {
  Fixture f(6);
  HardwareNetwork hw(f.net, dev(), quiet_aging());
  hw.deploy(MappingPolicy::kFresh, 8);
  OnlineTuner tuner({});
  data::Dataset empty;
  empty.classes = 1;
  empty.channels = 1;
  empty.height = 1;
  empty.width = 8;
  empty.images = Tensor(Shape{0, 8});
  EXPECT_THROW(tuner.tune(hw, empty, f.data.test), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife::tuning
