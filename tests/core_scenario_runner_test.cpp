// ScenarioRunner: deterministic sweep fan-out. The load-bearing property
// is byte-identity between the serial and threaded sweeps — scheduling
// must never touch the numbers — and between a job whose dataset and
// training were shared and the same job run on its own.
#include "core/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/fault_campaign.hpp"
#include "core/shared_slots.hpp"
#include "obs/metrics.hpp"
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
          {"train_config.momentum",
           [](ExperimentConfig& c) { c.train_config.momentum /= 2; }},
          {"train_config.lr_decay",
           [](ExperimentConfig& c) { c.train_config.lr_decay /= 2; }},
          {"train_config.omega_freeze_epoch",
           [](ExperimentConfig& c) { ++c.train_config.omega_freeze_epoch; }},
          {"train_config.shuffle_seed",
           [](ExperimentConfig& c) { ++c.train_config.shuffle_seed; }},
          {"l2_lambda", [](ExperimentConfig& c) { c.l2_lambda *= 2; }},
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
             c.lifetime.resilience.enabled = true;
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
  const FaultCampaignResult result = run_fault_campaign(cc);
  // The checkpointed engine fans out through the same pass.
  cc.checkpoint_path = ::testing::TempDir() + "shared_fault_grid_" +
                       std::string(GetParam()) + ".ckpt";
  std::remove(cc.checkpoint_path.c_str());
  std::remove((cc.checkpoint_path + ".bak").c_str());
  const FaultCampaignResult checkpointed = run_fault_campaign(cc);
  std::remove(cc.checkpoint_path.c_str());
  std::remove((cc.checkpoint_path + ".bak").c_str());
  set_parallel_threads(1);
  ASSERT_EQ(checkpointed.jobs.size(), result.jobs.size());
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(checkpointed.jobs[i].entry_json, result.jobs[i].entry_json);
  }

  std::vector<ScenarioJob> jobs;
  std::vector<ScenarioSweepEntry> entries;
  for (const FaultCampaignJob& job : result.jobs) {
    ASSERT_TRUE(job.entry.has_value()) << job.label;
    ScenarioJob spec;
    spec.label = job.label;
    spec.config = cc.base;
    spec.scenario = job.entry->scenario;
    const FaultPoint& point =
        job.label.rfind("clean/", 0) == 0 ? clean : stuck;
    spec.config.faults = point.faults;
    spec.config.lifetime.resilience = point.resilience;
    jobs.push_back(spec);
    entries.push_back(*job.entry);
  }
  ASSERT_EQ(jobs.size(), 4u);
  expect_matches_standalone(jobs, entries);
}

INSTANTIATE_TEST_SUITE_P(
    Models, SharedSweep, ::testing::Values("mlp", "lenet5", "vgg16"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

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
