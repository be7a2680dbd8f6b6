// Resilience subsystem: manufacture-fault statistics on deployed
// hardware, the zero-config bit-identity guarantee, fault masking, and
// the acceptance gate for the escalation ladder — at a nonzero fault
// rate the ladder must demonstrably extend lifetime over the legacy
// single-shot rescue.
#include "resilience/resilience.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "resilience/escalation.hpp"
#include "xbar/executor.hpp"
#include "xbar/remote.hpp"

namespace xbarlife::resilience {
namespace {

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.name = "resilience-tiny";
  cfg.model = core::ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 24;
  cfg.dataset.test_per_class = 6;
  cfg.dataset.noise = 0.1;
  cfg.train_config.epochs = 2;
  cfg.train_config.batch = 16;
  cfg.train_config.learning_rate = 0.05;
  cfg.lifetime.max_sessions = 8;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

TEST(ResilienceConfig, ValidatesFloor) {
  ResilienceConfig c;
  EXPECT_NO_THROW(c.validate());
  c.degraded_accuracy_floor = 1.5;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c.degraded_accuracy_floor = -0.1;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(ResilienceConfig, ActiveForGating) {
  ResilienceConfig c;
  tuning::HardwareFaultConfig faults;
  // Ideal array: inactive.
  EXPECT_FALSE(c.active_for(faults));
  // Any hardware fault model activates it.
  faults.nonideal.stuck_off_fraction = 0.01;
  EXPECT_TRUE(c.active_for(faults));
  // The master switch wins over everything.
  c.ladder_enabled = false;
  EXPECT_FALSE(c.active_for(faults));
}

TEST(FaultCensus, ManufactureFractionMatchesConfiguredRates) {
  core::ExperimentConfig cfg = tiny_config();
  Rng rng(cfg.seed);
  nn::Network net = core::build_model(cfg, rng);

  tuning::HardwareFaultConfig faults;
  faults.nonideal.stuck_off_fraction = 0.06;
  faults.nonideal.stuck_on_fraction = 0.03;
  faults.fault_seed = 11;
  tuning::HardwareNetwork hw(net, cfg.device, cfg.aging, faults);

  const FaultCensus c = census(hw);
  ASSERT_GT(c.cells, 500u);  // enough cells for the fractions to mean much
  const double observed =
      static_cast<double>(c.manufacture) / static_cast<double>(c.cells);
  EXPECT_NEAR(observed, 0.09, 0.03);
  EXPECT_EQ(c.clamped, 0u);  // nothing programmed yet
  EXPECT_EQ(c.dead, 0u);
}

TEST(FaultCensus, IdealArrayHasNoManufactureFaults) {
  core::ExperimentConfig cfg = tiny_config();
  Rng rng(cfg.seed);
  nn::Network net = core::build_model(cfg, rng);
  tuning::HardwareNetwork hw(net, cfg.device, cfg.aging);
  const FaultCensus c = census(hw);
  EXPECT_EQ(c.manufacture, 0u);
  EXPECT_GT(c.cells, 0u);
}

TEST(SpareRows, CrossbarsGainPhysicalRowsOnlyWhenFaultsActive) {
  core::ExperimentConfig cfg = tiny_config();
  Rng rng(cfg.seed);
  nn::Network net = core::build_model(cfg, rng);

  tuning::HardwareFaultConfig faults;
  faults.spare_rows = 3;
  tuning::HardwareNetwork hw(net, cfg.device, cfg.aging, faults);
  for (std::size_t i = 0; i < hw.layer_count(); ++i) {
    EXPECT_EQ(hw.physical_rows(i), hw.layer(i).logical_rows + 3);
  }

  // An inactive config must not grow the arrays.
  nn::Network net2 = core::build_model(cfg, rng);
  tuning::HardwareNetwork plain(net2, cfg.device, cfg.aging,
                                tuning::HardwareFaultConfig{});
  for (std::size_t i = 0; i < plain.layer_count(); ++i) {
    EXPECT_EQ(plain.physical_rows(i), plain.layer(i).logical_rows);
  }
}

TEST(RowPermutation, RejectsNonInjectiveAndOutOfRange) {
  core::ExperimentConfig cfg = tiny_config();
  Rng rng(cfg.seed);
  nn::Network net = core::build_model(cfg, rng);
  tuning::HardwareNetwork hw(net, cfg.device, cfg.aging);
  const std::size_t rows = hw.layer(0).logical_rows;
  std::vector<std::size_t> perm(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    perm[r] = r;
  }
  perm[0] = perm[1];  // not injective
  EXPECT_THROW(hw.set_row_permutation(0, perm), InvalidArgument);
  perm[0] = rows;  // out of range (no spares)
  EXPECT_THROW(hw.set_row_permutation(0, perm), InvalidArgument);
}

TEST(EscalationRungs, NamesAreStable) {
  EXPECT_STREQ(to_string(Rung::kFallbackExecutor), "fallback_executor");
  EXPECT_STREQ(to_string(Rung::kRetry), "retry");
  EXPECT_STREQ(to_string(Rung::kRemap), "remap");
  EXPECT_STREQ(to_string(Rung::kFaultMask), "fault_mask");
  EXPECT_STREQ(to_string(Rung::kSpareRows), "spare_rows");
  EXPECT_STREQ(to_string(Rung::kDegraded), "degraded");
}

// The acceptance gate for wiring the fault model in at all: with every
// nonideality at zero, the lifetime run must be bit-identical whether
// the ladder is enabled (its default) or force-disabled — i.e. the
// resilience layer adds no RNG draws and no behavioural change until a
// fault model activates it.
TEST(ZeroConfig, LifetimeIsBitIdenticalWithLadderOnOrOff) {
  core::ExperimentConfig on = tiny_config();
  on.lifetime.resilience.ladder_enabled = true;
  core::ExperimentConfig off = tiny_config();
  off.lifetime.resilience.ladder_enabled = false;

  const core::ScenarioOutcome a =
      core::run_scenario(on, core::Scenario::kSTAT);
  const core::ScenarioOutcome b =
      core::run_scenario(off, core::Scenario::kSTAT);
  EXPECT_EQ(core::scenario_outcome_json(a).dump(),
            core::scenario_outcome_json(b).dump());
}

// The headline claim: at a nonzero fault rate the escalation ladder
// extends lifetime over the ladder-disabled (legacy rescue) baseline.
// Both runs share the exact same seeds and fault maps; only the rescue
// policy differs.
TEST(EscalationLadder, ExtendsLifetimeUnderManufactureFaults) {
  core::ExperimentConfig base = tiny_config();
  base.target_accuracy_fraction = 0.9;
  base.faults.nonideal.stuck_off_fraction = 0.18;
  base.faults.nonideal.stuck_on_fraction = 0.05;
  base.faults.nonideal.write_noise_sigma = 0.05;
  base.faults.spare_rows = 4;
  base.faults.fault_seed = 22;

  core::ExperimentConfig with_ladder = base;
  with_ladder.lifetime.resilience.ladder_enabled = true;
  core::ExperimentConfig without = base;
  without.lifetime.resilience.ladder_enabled = false;

  const core::ScenarioOutcome a =
      core::run_scenario(with_ladder, core::Scenario::kSTAT);
  const core::ScenarioOutcome b =
      core::run_scenario(without, core::Scenario::kSTAT);

  EXPECT_GT(a.lifetime.lifetime_applications,
            b.lifetime.lifetime_applications)
      << "ladder: " << a.lifetime.lifetime_applications
      << " apps, legacy rescue: " << b.lifetime.lifetime_applications;

  // The ladder run must actually have engaged (rungs recorded).
  bool saw_rung = false;
  for (const core::SessionRecord& rec : a.lifetime.sessions) {
    EXPECT_TRUE(rec.resilience_active);
    saw_rung = saw_rung || !rec.rescue_rungs.empty();
  }
  EXPECT_TRUE(saw_rung);
}

// Degraded mode: with an aggressive fault model and a permissive floor,
// sessions that miss the tuning target keep serving (and count
// applications) instead of ending the array's life on the spot.
TEST(EscalationLadder, DegradedModeKeepsServingAboveFloor) {
  core::ExperimentConfig cfg = tiny_config();
  cfg.faults.nonideal.stuck_off_fraction = 0.12;
  cfg.faults.nonideal.stuck_on_fraction = 0.04;
  cfg.faults.fault_seed = 21;
  cfg.lifetime.resilience.degraded_accuracy_floor = 0.0;

  const core::ScenarioOutcome o =
      core::run_scenario(cfg, core::Scenario::kSTAT);
  // A floor of zero accepts any accuracy, so every session either
  // converges or degrades: the run must reach the session cap alive.
  EXPECT_FALSE(o.lifetime.died);
  EXPECT_EQ(o.lifetime.sessions.size(), cfg.lifetime.max_sessions);
}

// The ladder's rung 0: when the remote executor has degraded (here:
// every sequence falls back because the worker address never answers),
// the first rescue pins execution to the local path, retunes, and the
// pin is recorded exactly once — later rescues in the same run skip the
// rung because pin_local_fallback() only returns true on the transition.
TEST(EscalationLadder, FallbackExecutorRungEngagesOncePerProcess) {
  // A dead endpoint with fast-failing retries: every remote attempt
  // falls back to local sim execution, marking the backend degraded.
  xbar::RemoteConfig rcfg;
  rcfg.address = "127.0.0.1:1";
  rcfg.dial_timeout = std::chrono::milliseconds(100);
  rcfg.request_deadline = std::chrono::milliseconds(200);
  rcfg.max_attempts = 2;
  rcfg.backoff_initial = std::chrono::milliseconds(1);
  rcfg.backoff_max = std::chrono::milliseconds(2);
  xbar::configure_remote_executor(rcfg);
  xbar::set_executor("remote");

  core::ExperimentConfig cfg = tiny_config();
  cfg.target_accuracy_fraction = 0.9;
  cfg.faults.nonideal.stuck_off_fraction = 0.18;
  cfg.faults.nonideal.stuck_on_fraction = 0.05;
  cfg.faults.nonideal.write_noise_sigma = 0.05;
  cfg.faults.spare_rows = 4;
  cfg.faults.fault_seed = 22;
  cfg.lifetime.resilience.ladder_enabled = true;

  const core::ScenarioOutcome o =
      core::run_scenario(cfg, core::Scenario::kSTAT);
  xbar::set_executor("sim");

  std::size_t fallback_rungs = 0;
  bool saw_rescue = false;
  for (const core::SessionRecord& rec : o.lifetime.sessions) {
    if (rec.rescue_rungs.empty()) {
      continue;
    }
    saw_rescue = true;
    for (std::size_t i = 0; i < rec.rescue_rungs.size(); ++i) {
      if (rec.rescue_rungs[i] == "fallback_executor") {
        ++fallback_rungs;
        // When the rung engages it is always the first attempted: the
        // cheapest rescue runs before any array mutation.
        EXPECT_EQ(i, 0u);
      }
    }
  }
  ASSERT_TRUE(saw_rescue) << "fault model never triggered a rescue";
  EXPECT_EQ(fallback_rungs, 1u)
      << "the pin transition must be recorded exactly once";

  // The degradation snapshot the result document stamps: fallbacks
  // accumulated before the pin, and the degraded flag held.
  const xbar::ExecutorDegradation deg = xbar::executor_degradation();
  EXPECT_TRUE(deg.degraded);
  EXPECT_GT(deg.fallbacks, 0u);

  // After the pin, every session still completed through the local path:
  // the run reached a normal end (EOL or session cap), not a crash.
  EXPECT_GT(o.lifetime.sessions.size(), 0u);
}

// On a network built over sim (or any in-process backend), the rung's
// degraded() check stays false and it never fires — pin_local_fallback()
// on sim is a no-op returning false.
TEST(EscalationLadder, FallbackExecutorRungInertOnLocalBackends) {
  core::ExperimentConfig cfg = tiny_config();
  Rng rng(cfg.seed);
  nn::Network net = core::build_model(cfg, rng);
  const xbar::SimExecutor sim;
  tuning::HardwareNetwork hw(net, cfg.device, cfg.aging, {}, sim);
  EXPECT_EQ(&hw.executor(), &sim);
  EXPECT_FALSE(hw.executor().degraded());
  EXPECT_FALSE(hw.executor().pin_local_fallback());
}

}  // namespace
}  // namespace xbarlife::resilience
