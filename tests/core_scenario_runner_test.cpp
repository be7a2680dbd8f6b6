// ScenarioRunner: deterministic sweep fan-out. The load-bearing property
// is byte-identity between the serial and threaded sweeps — scheduling
// must never touch the numbers — and between a job whose dataset and
// training were shared and the same job run on its own.
#include "core/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/fault_campaign.hpp"
#include "core/shared_slots.hpp"
#include "obs/event_trace.hpp"
#include "obs/fork.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "xbar/executor.hpp"
#include "xbar/remote.hpp"

namespace xbarlife::core {
namespace {

/// Restores the serial default so test order never leaks thread state.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(1); }
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.name = "sweep-tiny";
  cfg.model = ExperimentConfig::Model::kMlp;
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
  cfg.lifetime.max_sessions = 12;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

bool records_identical(const SessionRecord& a, const SessionRecord& b) {
  return a.session == b.session && a.applications == b.applications &&
         a.tuning_iterations == b.tuning_iterations &&
         a.rescued == b.rescued && a.converged == b.converged &&
         a.start_accuracy == b.start_accuracy && a.accuracy == b.accuracy &&
         a.pulses_total == b.pulses_total &&
         a.layer_mean_aged_rmax == b.layer_mean_aged_rmax &&
         a.layer_mean_usable_levels == b.layer_mean_usable_levels;
}

bool entries_identical(const ScenarioSweepEntry& a,
                       const ScenarioSweepEntry& b) {
  if (a.label != b.label || a.scenario != b.scenario ||
      a.stream != b.stream || a.seed != b.seed ||
      a.data_seed != b.data_seed || a.drift_seed != b.drift_seed) {
    return false;
  }
  if (a.outcome.software_accuracy != b.outcome.software_accuracy ||
      a.outcome.tuning_target != b.outcome.tuning_target ||
      a.outcome.lifetime.lifetime_applications !=
          b.outcome.lifetime.lifetime_applications ||
      a.outcome.lifetime.died != b.outcome.lifetime.died ||
      a.outcome.lifetime.sessions.size() !=
          b.outcome.lifetime.sessions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcome.lifetime.sessions.size(); ++i) {
    if (!records_identical(a.outcome.lifetime.sessions[i],
                           b.outcome.lifetime.sessions[i])) {
      return false;
    }
  }
  return true;
}

TEST(ScenarioRunner, CrossBuildsReplicateByScenarioGrid) {
  const auto jobs = ScenarioRunner::cross(
      tiny_config(), {Scenario::kTT, Scenario::kSTT}, 3);
  ASSERT_EQ(jobs.size(), 6u);
  // Replicate r of every scenario shares stream r.
  EXPECT_EQ(jobs[0].stream, 0u);
  EXPECT_EQ(jobs[1].stream, 0u);
  EXPECT_EQ(jobs[2].stream, 1u);
  EXPECT_EQ(jobs[5].stream, 2u);
  EXPECT_EQ(jobs[0].scenario, Scenario::kTT);
  EXPECT_EQ(jobs[1].scenario, Scenario::kSTT);
  EXPECT_EQ(jobs[0].label, std::string(to_string(Scenario::kTT)) + "/r0");
  EXPECT_THROW(ScenarioRunner::cross(tiny_config(), {Scenario::kTT}, 0),
               InvalidArgument);
}

TEST(ScenarioRunner, StreamsDecorrelateSeedsDeterministically) {
  ThreadGuard guard;
  ScenarioRunner runner(42);
  std::vector<ScenarioJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "j" + std::to_string(i);
    jobs[i].config = tiny_config();
    jobs[i].config.lifetime.max_sessions = 1;  // seeds are the point here
    jobs[i].stream = i == 2 ? 0 : i;           // job 2 reuses stream 0
  }
  const auto entries = runner.run(jobs);
  ASSERT_EQ(entries.size(), 3u);
  // Distinct streams draw distinct seeds; a reused stream reproduces them.
  EXPECT_NE(entries[0].seed, entries[1].seed);
  EXPECT_NE(entries[0].data_seed, entries[1].data_seed);
  EXPECT_EQ(entries[0].seed, entries[2].seed);
  EXPECT_EQ(entries[0].data_seed, entries[2].data_seed);
  EXPECT_EQ(entries[0].drift_seed, entries[2].drift_seed);
}

TEST(ScenarioRunner, ThreadedSweepIsByteIdenticalToSerial) {
  ThreadGuard guard;
  ScenarioRunner runner;
  const auto jobs =
      ScenarioRunner::cross(tiny_config(), {Scenario::kTT}, 2);

  set_parallel_threads(1);
  const auto serial = runner.run(jobs);
  set_parallel_threads(4);
  const auto threaded = runner.run(jobs);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(entries_identical(serial[i], threaded[i])) << "job " << i;
    EXPECT_FALSE(serial[i].outcome.lifetime.sessions.empty());
  }
  // Replicates with distinct streams actually diverge — the sweep is not
  // trivially identical because every job collapsed to the same numbers.
  EXPECT_NE(serial[0].seed, serial[1].seed);
  EXPECT_NE(serial[0].outcome.software_accuracy,
            serial[1].outcome.software_accuracy);
}

TEST(ScenarioRunner, PoisonedJobDoesNotLoseTheOthers) {
  ThreadGuard guard;
  set_parallel_threads(2);
  ScenarioRunner runner;
  std::vector<ScenarioJob> jobs(3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "j" + std::to_string(i);
    jobs[i].config = tiny_config();
    jobs[i].config.lifetime.max_sessions = 2;
    jobs[i].stream = i;
  }
  // A one-level quantizer cannot exist: job 1 throws InvalidArgument
  // inside the fan-out.
  jobs[1].config.lifetime.levels = 1;

  const auto entries = runner.run(jobs);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_FALSE(entries[0].failed);
  EXPECT_FALSE(entries[2].failed);
  EXPECT_TRUE(entries[1].failed);
  EXPECT_NE(entries[1].error.find("two levels"), std::string::npos)
      << entries[1].error;
  // The healthy jobs' results are intact...
  EXPECT_FALSE(entries[0].outcome.lifetime.sessions.empty());
  EXPECT_FALSE(entries[2].outcome.lifetime.sessions.empty());
  // ...and the failed one still carries its identity and seeds.
  EXPECT_EQ(entries[1].label, "j1");
  EXPECT_NE(entries[1].seed, 0u);
  EXPECT_TRUE(entries[1].outcome.lifetime.sessions.empty());
}

// Which worker of a pool owns which array is a function of the jobs'
// seeds, never of construction order: the same sweep gives the same
// per-endpoint accounting on a second run in one process and at any
// thread count.
TEST(ScenarioRunner, PoolOwnershipIsIdenticalAcrossRunsAndThreadCounts) {
  ThreadGuard guard;
  ExperimentConfig cfg = tiny_config();
  cfg.lifetime.max_sessions = 4;
  const auto jobs =
      ScenarioRunner::cross(cfg, {Scenario::kTT, Scenario::kSTT}, 2);
  ASSERT_EQ(jobs.size(), 4u);
  const auto run = [&jobs](std::size_t threads) {
    set_parallel_threads(threads);
    // A fresh executor per run, so its accounting starts at zero.
    xbar::RemoteConfig rc;
    rc.address = "loopback,loopback,loopback";
    xbar::configure_remote_executor(rc);
    xbar::set_executor("remote");
    obs::Registry reg;
    ScenarioRunner().run(jobs, obs::Obs{&reg});
    // Per endpoint: requests, failovers, circuit opens.
    std::vector<std::uint64_t> out;
    const xbar::ExecutorPoolSummary pool = xbar::executor_pool_summary();
    EXPECT_EQ(pool.endpoints.size(), 3u);
    for (std::size_t i = 0; i < pool.endpoints.size(); ++i) {
      const xbar::PoolEndpointSummary& ep = pool.endpoints[i];
      EXPECT_EQ(reg.counter("executor.remote." + std::to_string(i) +
                            ".requests")
                    .value(),
                ep.requests);
      out.insert(out.end(), {ep.requests, ep.failovers, ep.circuit_opens});
    }
    xbar::set_executor("sim");
    return out;
  };
  const std::vector<std::uint64_t> first = run(1);
  EXPECT_EQ(run(1), first) << "second run in the same process";
  EXPECT_EQ(run(4), first) << "four threads";
  EXPECT_EQ(run(4), first) << "four threads, again";
  // More than one endpoint owns arrays, so the equality is not trivial.
  ASSERT_EQ(first.size(), 9u);
  EXPECT_GE((first[0] > 0) + (first[3] > 0) + (first[6] > 0), 2);
}

// ---------------------------------------------------------------------
// Shared datasets and trainings.

TEST(TrainingKey, ChangesWithEveryTrainingInput) {
  const ExperimentConfig base = tiny_config();
  const std::string key = training_key(base, true);
  const std::vector<std::pair<const char*,
                              std::function<void(ExperimentConfig&)>>>
      flips{
          {"seed", [](ExperimentConfig& c) { ++c.seed; }},
          {"dataset.classes", [](ExperimentConfig& c) { ++c.dataset.classes; }},
          {"dataset.train_per_class",
           [](ExperimentConfig& c) { ++c.dataset.train_per_class; }},
          {"dataset.test_per_class",
           [](ExperimentConfig& c) { ++c.dataset.test_per_class; }},
          {"dataset.channels",
           [](ExperimentConfig& c) { ++c.dataset.channels; }},
          {"dataset.height", [](ExperimentConfig& c) { ++c.dataset.height; }},
          {"dataset.width", [](ExperimentConfig& c) { ++c.dataset.width; }},
          {"dataset.noise",
           [](ExperimentConfig& c) { c.dataset.noise += 0.01; }},
          {"dataset.texture_waves",
           [](ExperimentConfig& c) { ++c.dataset.texture_waves; }},
          {"dataset.seed", [](ExperimentConfig& c) { ++c.dataset.seed; }},
          {"model",
           [](ExperimentConfig& c) {
             c.model = ExperimentConfig::Model::kLeNet5;
           }},
          {"mlp_hidden", [](ExperimentConfig& c) { c.mlp_hidden.push_back(8); }},
          {"vgg_width", [](ExperimentConfig& c) { ++c.vgg_width; }},
          {"train_config.epochs",
           [](ExperimentConfig& c) { ++c.train_config.epochs; }},
          {"train_config.batch",
           [](ExperimentConfig& c) { ++c.train_config.batch; }},
          {"train_config.learning_rate",
           [](ExperimentConfig& c) { c.train_config.learning_rate *= 2; }},
          {"skew.lambda1", [](ExperimentConfig& c) { c.skew.lambda1 *= 2; }},
          {"skew.lambda2", [](ExperimentConfig& c) { c.skew.lambda2 *= 2; }},
          {"skew.omega_factor",
           [](ExperimentConfig& c) { c.skew.omega_factor *= 2; }},
      };
  for (const auto& [field, flip] : flips) {
    ExperimentConfig cfg = base;
    flip(cfg);
    EXPECT_NE(training_key(cfg, true), key) << field;
  }
  EXPECT_NE(training_key(base, false), key) << "skewed";
  EXPECT_EQ(training_key(base, true), key);
}

TEST(TrainingKey, IgnoresDeploymentAndLifetimeFields) {
  const ExperimentConfig base = tiny_config();
  const std::string key = training_key(base, false);
  const std::string data_key = dataset_key(base.dataset);
  const std::vector<std::pair<const char*,
                              std::function<void(ExperimentConfig&)>>>
      flips{
          {"name", [](ExperimentConfig& c) { c.name = "other"; }},
          {"faults",
           [](ExperimentConfig& c) {
             c.faults.nonideal.stuck_off_fraction = 0.1;
             c.faults.spare_rows = 2;
             ++c.faults.fault_seed;
           }},
          {"device", [](ExperimentConfig& c) { c.device.r_max_fresh *= 2; }},
          {"aging",
           [](ExperimentConfig& c) { c.aging.activation_energy_ev *= 2; }},
          {"lifetime",
           [](ExperimentConfig& c) {
             ++c.lifetime.levels;
             ++c.lifetime.drift_seed;
             c.lifetime.tuning.max_iterations = 3;
             c.lifetime.resilience.ladder_enabled = false;
           }},
          {"absolute_tuning_target",
           [](ExperimentConfig& c) { c.absolute_tuning_target = 0.5; }},
          {"target_accuracy_fraction",
           [](ExperimentConfig& c) { c.target_accuracy_fraction = 0.5; }},
      };
  for (const auto& [field, flip] : flips) {
    ExperimentConfig cfg = base;
    flip(cfg);
    EXPECT_EQ(training_key(cfg, false), key) << field;
    EXPECT_EQ(dataset_key(cfg.dataset), data_key) << field;
  }
  // The dataset key is the dataset alone: training knobs leave it alone.
  ExperimentConfig retrained = base;
  ++retrained.seed;
  ++retrained.train_config.epochs;
  EXPECT_EQ(dataset_key(retrained.dataset), data_key);
}

/// Calls visit(name, field, training) on every field of a (forked)
/// config, `training` telling whether train_model or make_synthetic reads
/// it. The structured bindings name every member of each struct, so a
/// field added to any of them stops this from compiling until it is
/// listed here, and the test below then checks that the keys cover it.
template <class Visit>
void visit_config_fields(ExperimentConfig& c, Visit visit) {
  auto& [name, model, vgg_width, mlp_hidden, dataset, train_config, skew,
         device, aging, faults, lifetime, absolute_tuning_target,
         target_accuracy_fraction, seed] = c;
  (void)name;  // a label: scenario_key documents it as not keyed
  visit("model", model, true);
  visit("vgg_width", vgg_width, true);
  visit("mlp_hidden", mlp_hidden, true);
  visit("seed", seed, true);
  visit("absolute_tuning_target", absolute_tuning_target, false);
  visit("target_accuracy_fraction", target_accuracy_fraction, false);
  {
    auto& [classes, train_per_class, test_per_class, channels, height,
           width, noise, texture_waves, data_seed] = dataset;
    visit("dataset.classes", classes, true);
    visit("dataset.train_per_class", train_per_class, true);
    visit("dataset.test_per_class", test_per_class, true);
    visit("dataset.channels", channels, true);
    visit("dataset.height", height, true);
    visit("dataset.width", width, true);
    visit("dataset.noise", noise, true);
    visit("dataset.texture_waves", texture_waves, true);
    visit("dataset.seed", data_seed, true);
  }
  {
    auto& [epochs, batch, learning_rate] = train_config;
    visit("train_config.epochs", epochs, true);
    visit("train_config.batch", batch, true);
    visit("train_config.learning_rate", learning_rate, true);
  }
  {
    auto& [lambda1, lambda2, omega_factor] = skew;
    visit("skew.lambda1", lambda1, true);
    visit("skew.lambda2", lambda2, true);
    visit("skew.omega_factor", omega_factor, true);
  }
  {
    auto& [r_min_fresh, r_max_fresh, levels, v_prog, t_pulse_s,
           temperature_k, compliance_current_a] = device;
    visit("device.r_min_fresh", r_min_fresh, false);
    visit("device.r_max_fresh", r_max_fresh, false);
    visit("device.levels", levels, false);
    visit("device.v_prog", v_prog, false);
    visit("device.t_pulse_s", t_pulse_s, false);
    visit("device.temperature_k", temperature_k, false);
    visit("device.compliance_current_a", compliance_current_a, false);
  }
  {
    auto& [activation_energy_ev, reference_temp_k, reference_current_a,
           current_exponent, a_f, m_f, a_g, m_g, r_floor,
           thermal_crosstalk] = aging;
    visit("aging.activation_energy_ev", activation_energy_ev, false);
    visit("aging.reference_temp_k", reference_temp_k, false);
    visit("aging.reference_current_a", reference_current_a, false);
    visit("aging.current_exponent", current_exponent, false);
    visit("aging.a_f", a_f, false);
    visit("aging.m_f", m_f, false);
    visit("aging.a_g", a_g, false);
    visit("aging.m_g", m_g, false);
    visit("aging.r_floor", r_floor, false);
    visit("aging.thermal_crosstalk", thermal_crosstalk, false);
  }
  {
    auto& [nonideal, spare_rows, fault_seed] = faults;
    auto& [write_noise_sigma, read_noise_sigma, stuck_off_fraction,
           stuck_on_fraction, line_resistance] = nonideal;
    visit("faults.spare_rows", spare_rows, false);
    visit("faults.fault_seed", fault_seed, false);
    visit("faults.nonideal.write_noise_sigma", write_noise_sigma, false);
    visit("faults.nonideal.read_noise_sigma", read_noise_sigma, false);
    visit("faults.nonideal.stuck_off_fraction", stuck_off_fraction, false);
    visit("faults.nonideal.stuck_on_fraction", stuck_on_fraction, false);
    visit("faults.nonideal.line_resistance", line_resistance, false);
  }
  {
    auto& [levels, apps_per_session, max_sessions, tuning, drift,
           drift_seed, selection_eval_samples, rescue_switch_margin,
           resilience] = lifetime;
    visit("lifetime.levels", levels, false);
    visit("lifetime.apps_per_session", apps_per_session, false);
    visit("lifetime.max_sessions", max_sessions, false);
    visit("lifetime.drift_seed", drift_seed, false);
    visit("lifetime.selection_eval_samples", selection_eval_samples, false);
    visit("lifetime.rescue_switch_margin", rescue_switch_margin, false);
    auto& [sigma] = drift;
    visit("lifetime.drift.sigma", sigma, false);
    auto& [max_iterations, target_accuracy, batch, min_grad_fraction,
           step_fraction, eval_samples, quantized_eval] = tuning;
    visit("lifetime.tuning.max_iterations", max_iterations, false);
    visit("lifetime.tuning.target_accuracy", target_accuracy, false);
    visit("lifetime.tuning.batch", batch, false);
    visit("lifetime.tuning.min_grad_fraction", min_grad_fraction, false);
    visit("lifetime.tuning.step_fraction", step_fraction, false);
    visit("lifetime.tuning.eval_samples", eval_samples, false);
    visit("lifetime.tuning.quantized_eval", quantized_eval, false);
    auto& [ladder_enabled, degraded_accuracy_floor] = resilience;
    visit("lifetime.resilience.ladder_enabled", ladder_enabled, false);
    visit("lifetime.resilience.degraded_accuracy_floor",
          degraded_accuracy_floor, false);
  }
}

/// Changes one config field to another valid-looking value.
template <class T>
void flip(T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = !field;
  } else if constexpr (std::is_same_v<T, ExperimentConfig::Model>) {
    field = field == ExperimentConfig::Model::kMlp
                ? ExperimentConfig::Model::kLeNet5
                : ExperimentConfig::Model::kMlp;
  } else if constexpr (std::is_same_v<T, std::vector<std::size_t>>) {
    field.push_back(8);
  } else if constexpr (std::is_floating_point_v<T>) {
    field = field * 1.5 + 0.25;
  } else {
    ++field;
  }
}

TEST(ConfigKeys, EveryFieldOfTheForkedConfigIsKeyed) {
  // Each field on its own: a training input must change training_key and
  // scenario_key, a deployment field scenario_key alone.
  const ScenarioRunner runner(3);
  ScenarioJob job{"ST+AT", tiny_config(), Scenario::kSTAT, 1};
  const ExperimentConfig base = runner.forked_config(job);
  const std::string train_key = training_key(base, true);
  const std::string key = scenario_key(base, Scenario::kSTAT);
  std::size_t fields = 0;
  for (std::size_t target = 0;; ++target) {
    ExperimentConfig cfg = base;
    std::string name;
    bool training = false;
    std::size_t index = 0;
    visit_config_fields(cfg, [&](const char* field_name, auto& field,
                                 bool reads_training) {
      if (index++ == target) {
        flip(field);
        name = field_name;
        training = reads_training;
      }
    });
    if (name.empty()) {
      fields = target;
      break;
    }
    EXPECT_NE(scenario_key(cfg, Scenario::kSTAT), key) << name;
    if (training) {
      EXPECT_NE(training_key(cfg, true), train_key) << name;
    } else {
      EXPECT_EQ(training_key(cfg, true), train_key) << name;
    }
  }
  EXPECT_EQ(fields, 61u);
  ExperimentConfig renamed = base;
  renamed.name = "other";
  EXPECT_EQ(scenario_key(renamed, Scenario::kSTAT), key);
  EXPECT_NE(scenario_key(base, Scenario::kSTT), key);
}

ExperimentConfig tiny_lenet_config() {
  ExperimentConfig cfg = tiny_config();
  cfg.model = ExperimentConfig::Model::kLeNet5;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 16;
  cfg.dataset.width = 16;
  cfg.dataset.train_per_class = 8;
  cfg.dataset.test_per_class = 4;
  cfg.lifetime.max_sessions = 3;
  return cfg;
}

ExperimentConfig tiny_vgg_config() {
  ExperimentConfig cfg = tiny_config();
  cfg.model = ExperimentConfig::Model::kVgg16;
  cfg.vgg_width = 1;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 32;
  cfg.dataset.width = 32;
  cfg.dataset.train_per_class = 4;
  cfg.dataset.test_per_class = 2;
  cfg.train_config.epochs = 1;
  cfg.lifetime.max_sessions = 2;
  cfg.lifetime.tuning.max_iterations = 4;
  cfg.lifetime.tuning.eval_samples = 8;
  cfg.lifetime.selection_eval_samples = 8;
  return cfg;
}

/// The job's config with the seeds its entry reports: what a standalone
/// run_scenario of that job must be given.
ExperimentConfig standalone_config(const ScenarioJob& job,
                                   const ScenarioSweepEntry& entry) {
  ExperimentConfig cfg = job.config;
  cfg.seed = entry.seed;
  cfg.dataset.seed = entry.data_seed;
  cfg.lifetime.drift_seed = entry.drift_seed;
  cfg.faults.fault_seed = entry.fault_seed;
  return cfg;
}

/// Every job of a sharing sweep equals its standalone run: records,
/// pulses and accuracy.
void expect_matches_standalone(const std::vector<ScenarioJob>& jobs,
                               const std::vector<ScenarioSweepEntry>& got) {
  ASSERT_EQ(got.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_FALSE(got[i].failed) << jobs[i].label << ": " << got[i].error;
    ScenarioSweepEntry alone = got[i];
    alone.outcome = run_scenario(standalone_config(jobs[i], got[i]),
                                 jobs[i].scenario);
    EXPECT_FALSE(alone.outcome.lifetime.sessions.empty()) << jobs[i].label;
    EXPECT_TRUE(entries_identical(got[i], alone)) << jobs[i].label;
  }
}

class SharedSweep : public ::testing::TestWithParam<const char*> {
 protected:
  ExperimentConfig config() const {
    const std::string model = GetParam();
    if (model == "lenet5") {
      return tiny_lenet_config();
    }
    if (model == "vgg16") {
      return tiny_vgg_config();
    }
    return tiny_config();
  }
};

TEST_P(SharedSweep, EveryJobMatchesItsStandaloneRunAtAnyThreadCount) {
  ThreadGuard guard;
  ScenarioRunner runner(5);
  const auto jobs = ScenarioRunner::cross(
      config(), {Scenario::kTT, Scenario::kSTT, Scenario::kSTAT}, 2);
  std::vector<ScenarioSweepEntry> serial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    const auto entries = runner.run(jobs);
    if (serial.empty()) {
      serial = entries;
      continue;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(entries_identical(entries[i], serial[i])) << i;
    }
  }
  set_parallel_threads(1);
  expect_matches_standalone(jobs, serial);
  // ST+T and ST+AT of a replicate really shared one training.
  EXPECT_EQ(serial[1].outcome.software_accuracy,
            serial[2].outcome.software_accuracy);
}

TEST_P(SharedSweep, FaultGridJobsMatchTheirStandaloneRuns) {
  ThreadGuard guard;
  set_parallel_threads(4);
  FaultCampaignConfig cc;
  cc.base = config();
  cc.base.lifetime.max_sessions = 2;
  cc.scenarios = {Scenario::kSTT, Scenario::kSTAT};
  cc.campaign_seed = 9;
  FaultPoint clean;
  clean.label = "clean";
  FaultPoint stuck;
  stuck.label = "stuck";
  stuck.faults.nonideal.stuck_off_fraction = 0.02;
  stuck.faults.spare_rows = 2;
  cc.points = {clean, stuck};
  const SweepOutcome result = run_fault_campaign(cc);
  // The checkpointed engine fans out through the same pass.
  cc.checkpoint_path = ::testing::TempDir() + "shared_fault_grid_" +
                       std::string(GetParam()) + ".ckpt";
  std::remove(cc.checkpoint_path.c_str());
  std::remove((cc.checkpoint_path + ".bak").c_str());
  const SweepOutcome checkpointed = run_fault_campaign(cc);
  std::remove(cc.checkpoint_path.c_str());
  std::remove((cc.checkpoint_path + ".bak").c_str());

  // Full outcomes: the campaign's job list through ScenarioRunner::run
  // reproduces every campaign entry, and each job equals its standalone
  // run.
  const std::vector<ScenarioJob> jobs = fault_campaign_jobs(cc);
  const std::vector<ScenarioSweepEntry> entries =
      ScenarioRunner(cc.campaign_seed).run(jobs);
  set_parallel_threads(1);
  ASSERT_EQ(jobs.size(), 4u);
  ASSERT_EQ(result.jobs.size(), jobs.size());
  ASSERT_EQ(checkpointed.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(checkpointed.jobs[i].entry_json, result.jobs[i].entry_json);
    const std::string point = i < 2 ? "clean" : "stuck";
    EXPECT_EQ(campaign_entry_json(entries[i], point).dump(),
              result.jobs[i].entry_json);
  }
  expect_matches_standalone(jobs, entries);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SharedSweep, ::testing::Values("mlp", "lenet5", "vgg16"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

/// A tiny MLP whose ST+T run rescues on arrays aged far enough that the
/// aging-aware choice (with no switch margin) takes an aged upper bound,
/// so ST+AT forks from its ride. `ladder` adds faulty arrays with spare
/// rows: the rescue then forks at the ladder's remap rung instead of the
/// plain rescue.
ExperimentConfig forking_config(bool ladder) {
  ExperimentConfig cfg = tiny_config();
  cfg.lifetime.max_sessions = 40;
  cfg.aging.a_f = 4.0e9;  // R_max ages ten times faster
  cfg.lifetime.drift.sigma = 0.08;
  cfg.lifetime.rescue_switch_margin = 0.0;
  if (ladder) {
    cfg.faults.nonideal.stuck_off_fraction = 0.05;
    cfg.faults.nonideal.write_noise_sigma = 0.05;
    cfg.faults.spare_rows = 4;
  }
  return cfg;
}

/// `line` without its wall-clock fields ("t_ms", and a span_end's
/// trailing "wall_ms").
std::string without_clock(std::string line) {
  std::size_t at = line.find("\"t_ms\":");
  if (at != std::string::npos) {
    line.erase(at, line.find(',', at) + 1 - at);
  }
  at = line.find(",\"wall_ms\":");
  if (at != std::string::npos) {
    line.erase(at, line.find('}', at) - at);
  }
  return line;
}

/// Every line job `job` emitted, without wall-clock fields (the fan-in's
/// sweep_job_done is the sweep's, not the job's).
std::vector<std::string> job_lines(const std::vector<std::string>& lines,
                                   const std::string& job) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    if (line.find("\"job\":\"" + job + "\"") != std::string::npos &&
        line.find("\"event\":\"sweep_job_done\"") == std::string::npos) {
      out.push_back(without_clock(line));
    }
  }
  return out;
}

/// The `lifetime_shared` line of every job that has one, by job label.
std::map<std::string, std::string> shared_lines(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> out;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"lifetime_shared\"") == std::string::npos) {
      continue;
    }
    const std::size_t at = line.find("\"job\":\"") + 7;
    const std::string job = line.substr(at, line.find('"', at) - at);
    EXPECT_TRUE(out.emplace(job, without_clock(line)).second)
        << "two lifetime_shared events for " << job;
  }
  return out;
}

/// The fork session a `lifetime_shared` line names; -1 for none.
long long fork_session(const std::string& line) {
  const std::size_t at = line.find("\"fork_session\":") + 15;
  return line.compare(at, 4, "null") == 0 ? -1 : std::stoll(line.substr(at));
}

struct ForkCase {
  const char* name;
  bool ladder;
  bool quantized;
  std::uint64_t sweep_seed;  ///< one under which replicate 0 forks
};

void PrintTo(const ForkCase& fc, std::ostream* os) { *os << fc.name; }

class SharedSweepFork : public ::testing::TestWithParam<ForkCase> {};

TEST_P(SharedSweepFork, ForkingPairsMatchTheirStandaloneRunsAtAnyThreadCount) {
  ThreadGuard guard;
  const ForkCase& fc = GetParam();
  const bool ladder = fc.ladder;
  const ScenarioRunner runner(fc.sweep_seed);
  ExperimentConfig cfg = forking_config(ladder);
  cfg.lifetime.tuning.quantized_eval = fc.quantized;
  const auto jobs = ScenarioRunner::cross(
      cfg, {Scenario::kSTT, Scenario::kSTAT}, 2);
  std::vector<ScenarioSweepEntry> serial;
  std::vector<std::string> serial_lines;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    obs::MemorySink sink;
    obs::EventTrace trace(&sink);
    obs::Obs o;
    o.trace = &trace;
    const auto entries = runner.run(jobs, o);
    if (serial.empty()) {
      serial = entries;
      serial_lines = sink.lines();
      continue;
    }
    for (const ScenarioJob& job : jobs) {
      EXPECT_EQ(job_lines(sink.lines(), job.label),
                job_lines(serial_lines, job.label))
          << job.label;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(entries_identical(entries[i], serial[i])) << i;
    }
  }
  auto serial_shared = shared_lines(serial_lines);
  // Riders whose owners are out of reach (not in the pass) ride alone:
  // the same entries and the same event streams.
  obs::MemorySink sink;
  obs::EventTrace trace(&sink);
  obs::Obs o;
  o.trace = &trace;
  obs::ObsFork fork(o, {"ST+T/r0", "ST+AT/r0", "ST+T/r1", "ST+AT/r1"});
  std::vector<ScenarioSweepEntry> alone(jobs.size());
  runner.run_each(jobs, {1, 3}, fork,
                  [&](std::size_t i, ScenarioSweepEntry entry) {
                    alone[i] = std::move(entry);
                  });
  fork.merge_into();
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_TRUE(entries_identical(alone[i], serial[i])) << i;
    EXPECT_EQ(job_lines(sink.lines(), jobs[i].label),
              job_lines(serial_lines, jobs[i].label))
        << jobs[i].label;
  }

  set_parallel_threads(1);
  expect_matches_standalone(jobs, serial);
  // Replicate 0 forked: ST+AT follows ST+T up to the fork session's
  // rescue and differs after it.
  ASSERT_EQ(serial_shared.count("ST+AT/r0"), 1u);
  const long long at = fork_session(serial_shared["ST+AT/r0"]);
  ASSERT_GT(at, 0) << serial_shared["ST+AT/r0"];
  if (ladder) {
    EXPECT_NE(serial_shared["ST+AT/r0"].find("\"layer\":1,"),
              std::string::npos)
        << serial_shared["ST+AT/r0"];
  }
  const auto& stt = serial[0].outcome.lifetime.sessions;
  const auto& stat = serial[1].outcome.lifetime.sessions;
  const auto fork_at = static_cast<std::size_t>(at);
  ASSERT_LT(fork_at, stt.size());
  ASSERT_LT(fork_at, stat.size());
  for (std::size_t k = 0; k < fork_at; ++k) {
    EXPECT_TRUE(records_identical(stt[k], stat[k])) << k;
  }
  EXPECT_FALSE(records_identical(stt[fork_at], stat[fork_at]));
  EXPECT_TRUE(stt[fork_at].rescued);
  const auto& rungs = stt[fork_at].rescue_rungs;
  if (ladder) {
    EXPECT_NE(std::find(rungs.begin(), rungs.end(), "remap"), rungs.end());
  } else {
    EXPECT_TRUE(rungs.empty());
  }
}

// The ladder cases fork at their second layer, after the first kept the
// fresh range; under --quantized its scoring sees the first layer's new
// plan through quant_specs().
INSTANTIATE_TEST_SUITE_P(
    Rescues, SharedSweepFork,
    ::testing::Values(ForkCase{"PlainRescue", false, false, 3},
                      ForkCase{"LadderRemap", true, false, 15},
                      ForkCase{"QuantizedLadderRemap", true, true, 2}),
    [](const ::testing::TestParamInfo<ForkCase>& param_info) {
      return std::string(param_info.param.name);
    });

/// Throws on the `n`th event of type `type`.
class ThrowingSink : public obs::Sink {
 public:
  ThrowingSink(std::string type, std::size_t n)
      : needle_("\"event\":\"" + type + "\""), left_(n) {}
  void write(const std::string& line) override {
    if (line.find(needle_) != std::string::npos && --left_ == 0) {
      throw IoError("sink gave up at " + line);
    }
  }

 private:
  std::string needle_;
  std::size_t left_;
};

TEST(SharedSweepRider, RiderOfAnOwnerThatThrowsFinishesAlone) {
  const ExperimentConfig cfg = forking_config(false);
  const data::TrainTest data = data::make_synthetic(cfg.dataset);
  TrainedModel tm = train_model(cfg, data, /*skewed=*/true);
  const TrainedParams params = capture_params(tm);
  const ScenarioOutcome alone = run_scenario(cfg, Scenario::kSTAT);
  // Before the fork (session 3 ends) and after it (at ST+T's end of life,
  // which comes in the fork session).
  for (const bool after_fork : {false, true}) {
    ThrowingSink sink(after_fork ? "eol" : "session_end",
                      after_fork ? 1 : 4);
    obs::EventTrace trace(&sink);
    obs::Obs o;
    o.trace = &trace;
    AgingAwareRide ride;
    EXPECT_THROW(run_trained(cfg, Scenario::kSTT, rebuild_model(cfg, params),
                             data, o, nullptr, &ride),
                 IoError);
    EXPECT_EQ(ride.fork.has_value(), after_fork);
    const ScenarioOutcome got =
        ride_aging_aware(cfg, ride, params, data, "ST+T");
    ASSERT_EQ(got.lifetime.sessions.size(), alone.lifetime.sessions.size());
    for (std::size_t k = 0; k < got.lifetime.sessions.size(); ++k) {
      EXPECT_TRUE(records_identical(got.lifetime.sessions[k],
                                    alone.lifetime.sessions[k]))
          << after_fork << " " << k;
    }
    EXPECT_EQ(got.lifetime.lifetime_applications,
              alone.lifetime.lifetime_applications);
    EXPECT_EQ(got.tuning_target, alone.tuning_target);
  }
}

TEST(SharedSlots, FailedOwnerLetsEverySharerBuildForItself) {
  ThreadGuard guard;
  set_parallel_threads(4);
  // Positions 0, 2, 3 share key "a" (0 owns it and throws); 1 owns "b".
  // Key "c": its owner 4 fails before acquiring and only finishes.
  SharedSlots<int> slots({"a", "b", "a", "a", "c", "c"});
  std::vector<int> got(6, 0);
  std::vector<std::string> errors(6);
  parallel_for(0, got.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (k == 4) {
        slots.finish(k);
        continue;
      }
      try {
        got[k] = *slots.acquire(k, [k]() -> std::shared_ptr<const int> {
          if (k == 0) {
            throw InvalidArgument("owner failed");
          }
          return std::make_shared<const int>(static_cast<int>(10 + k));
        });
      } catch (const InvalidArgument& e) {
        errors[k] = e.what();
      }
    }
  });
  EXPECT_EQ(errors[0], "owner failed");
  EXPECT_EQ(got[1], 11);
  EXPECT_EQ(got[2], 12);  // built for itself, not the owner's value
  EXPECT_EQ(got[3], 13);
  EXPECT_EQ(got[5], 15);  // did not wait forever on the silent owner
}

TEST(SharedSlots, SharersReceiveTheOwnersValue) {
  ThreadGuard guard;
  set_parallel_threads(4);
  SharedSlots<int> slots({"a", "a", "b", "a"});
  std::atomic<int> builds{0};
  std::vector<int> got(4, 0);
  parallel_for(0, got.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      got[k] = *slots.acquire(k, [&builds, k] {
        ++builds;
        return std::make_shared<const int>(static_cast<int>(k));
      });
    }
  });
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(got, (std::vector<int>{0, 0, 2, 0}));
}

TEST(ScenarioRunner, OwnerWhoseTrainingThrowsLetsItsSharersFinish) {
  ThreadGuard guard;
  set_parallel_threads(4);
  ScenarioRunner runner;
  ExperimentConfig cfg = tiny_config();
  cfg.train_config.epochs = 0;  // every training throws
  const auto jobs = ScenarioRunner::cross(
      cfg, {Scenario::kSTT, Scenario::kSTAT, Scenario::kSTT}, 2);
  const auto entries = runner.run(jobs);
  ASSERT_EQ(entries.size(), jobs.size());
  for (const ScenarioSweepEntry& e : entries) {
    // Each sharer retried the training itself and failed on its own.
    EXPECT_TRUE(e.failed) << e.label;
    EXPECT_NE(e.error.find("epoch"), std::string::npos) << e.error;
  }
}

}  // namespace
}  // namespace xbarlife::core
