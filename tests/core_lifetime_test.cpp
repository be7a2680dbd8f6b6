// Lifetime-protocol tests: session bookkeeping, failure detection, and the
// headline ordering property on a small instance.
#include "core/lifetime.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "nn/model_zoo.hpp"
#include "support/blobs.hpp"

namespace xbarlife::core {
namespace {

struct Fixture {
  data::TrainTest data;
  nn::Network net;

  Fixture()
      : data(data::make_blobs(4, 8, 40, 16, 0.25, 21)), net(make()) {
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batch = 20;
    cfg.learning_rate = 0.05;
    Trainer(net, data, cfg, nullptr).run();
  }

  static nn::Network make() {
    Rng rng(8);
    return nn::make_mlp(8, {12}, 4, rng);
  }
};

LifetimeConfig small_config(double target) {
  LifetimeConfig lc;
  lc.levels = 16;
  lc.apps_per_session = 1000;
  lc.max_sessions = 10;
  lc.tuning.target_accuracy = target;
  lc.tuning.max_iterations = 30;
  lc.tuning.eval_samples = 48;
  lc.tuning.batch = 20;
  lc.drift.sigma = 0.05;
  return lc;
}

TEST(LifetimeSimulator, ValidatesConfig) {
  LifetimeConfig lc = small_config(0.5);
  lc.levels = 1;
  EXPECT_THROW(LifetimeSimulator{lc}, InvalidArgument);
  lc = small_config(0.5);
  lc.apps_per_session = 0;
  EXPECT_THROW(LifetimeSimulator{lc}, InvalidArgument);
  lc = small_config(0.5);
  lc.drift.sigma = -1.0;
  EXPECT_THROW(LifetimeSimulator{lc}, InvalidArgument);
}

TEST(LifetimeSimulator, HealthySurvivesToSessionCap) {
  Fixture f;
  tuning::HardwareNetwork hw(f.net, {}, {});
  LifetimeSimulator sim(small_config(0.3));  // easy target
  const LifetimeResult r =
      sim.run(hw, f.data.train, f.data.test, tuning::MappingPolicy::kFresh);
  EXPECT_FALSE(r.died);
  EXPECT_EQ(r.sessions.size(), 10u);
  EXPECT_EQ(r.lifetime_applications, 10u * 1000u);
}

TEST(LifetimeSimulator, SessionRecordsAreCumulative) {
  Fixture f;
  tuning::HardwareNetwork hw(f.net, {}, {});
  LifetimeSimulator sim(small_config(0.3));
  const LifetimeResult r =
      sim.run(hw, f.data.train, f.data.test, tuning::MappingPolicy::kFresh);
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    const SessionRecord& rec = r.sessions[i];
    EXPECT_EQ(rec.session, i);
    EXPECT_EQ(rec.applications, (i + 1) * 1000u);
    EXPECT_EQ(rec.layer_mean_aged_rmax.size(), hw.layer_count());
    EXPECT_EQ(rec.layer_mean_usable_levels.size(), hw.layer_count());
    if (i > 0) {
      EXPECT_GE(rec.pulses_total, r.sessions[i - 1].pulses_total);
      // Aging is irreversible: mean aged r_max never recovers.
      EXPECT_LE(rec.layer_mean_aged_rmax[0],
                r.sessions[i - 1].layer_mean_aged_rmax[0] + 1e-6);
    }
  }
}

TEST(LifetimeSimulator, ImpossibleTargetDiesImmediately) {
  // Heavily overlapping classes so 100% accuracy is genuinely impossible
  // and the unreachable target must fail the first session.
  const auto noisy = data::make_blobs(4, 8, 40, 16, 1.5, 33);
  Rng rng(8);
  nn::Network net = nn::make_mlp(8, {12}, 4, rng);
  TrainConfig cfg;
  cfg.epochs = 5;
  Trainer(net, noisy, cfg, nullptr).run();
  tuning::HardwareNetwork hw(net, {}, {});
  LifetimeConfig lc = small_config(0.9999);  // unreachable
  lc.tuning.max_iterations = 5;
  LifetimeSimulator sim(lc);
  const LifetimeResult r =
      sim.run(hw, noisy.train, noisy.test, tuning::MappingPolicy::kFresh);
  EXPECT_TRUE(r.died);
  EXPECT_EQ(r.sessions.size(), 1u);
  EXPECT_FALSE(r.sessions[0].converged);
  EXPECT_EQ(r.lifetime_applications, 0u);
}

TEST(LifetimeSimulator, AggressiveAgingKillsWithinCap) {
  Fixture f;
  aging::AgingParams hot;
  hot.a_f = 5e10;
  hot.a_g = 2e9;
  hot.current_exponent = 2.0;
  tuning::HardwareNetwork hw(f.net, {}, hot);
  LifetimeConfig lc = small_config(0.7);
  lc.max_sessions = 60;
  lc.drift.sigma = 0.1;
  LifetimeSimulator sim(lc);
  const LifetimeResult r =
      sim.run(hw, f.data.train, f.data.test, tuning::MappingPolicy::kFresh);
  EXPECT_TRUE(r.died);
  EXPECT_LT(r.sessions.size(), 60u);
  // The terminal session must be the non-converged one.
  EXPECT_FALSE(r.sessions.back().converged);
  for (std::size_t i = 0; i + 1 < r.sessions.size(); ++i) {
    EXPECT_TRUE(r.sessions[i].converged);
  }
}

TEST(LifetimeSimulator, DeterministicGivenSeeds) {
  auto run_once = [&]() {
    Fixture f;
    tuning::HardwareNetwork hw(f.net, {}, {});
    LifetimeSimulator sim(small_config(0.5));
    return sim
        .run(hw, f.data.train, f.data.test, tuning::MappingPolicy::kFresh)
        .lifetime_applications;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scenario, NamesAndPolicies) {
  EXPECT_STREQ(to_string(Scenario::kTT), "T+T");
  EXPECT_STREQ(to_string(Scenario::kSTT), "ST+T");
  EXPECT_STREQ(to_string(Scenario::kSTAT), "ST+AT");
  EXPECT_FALSE(uses_skewed_training(Scenario::kTT));
  EXPECT_TRUE(uses_skewed_training(Scenario::kSTT));
  EXPECT_TRUE(uses_skewed_training(Scenario::kSTAT));
  EXPECT_EQ(mapping_policy(Scenario::kTT), tuning::MappingPolicy::kFresh);
  EXPECT_EQ(mapping_policy(Scenario::kSTT), tuning::MappingPolicy::kFresh);
  EXPECT_EQ(mapping_policy(Scenario::kSTAT),
            tuning::MappingPolicy::kAgingAware);
}

}  // namespace
}  // namespace xbarlife::core
