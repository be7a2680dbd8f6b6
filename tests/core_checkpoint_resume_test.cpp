// Crash-safe resume contract: a run killed at every checkpoint boundary
// and resumed must reproduce the uninterrupted run's result document and
// event trace byte-for-byte (t_ms and the seq-less persist meta lines
// aside), at any thread count. Also covers the cooperative shutdown
// (InterruptedError) and the per-job watchdog (TimeoutError isolation).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/shutdown.hpp"
#include "core/experiment.hpp"
#include "core/fault_campaign.hpp"
#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "core/sweep_checkpoint.hpp"
#include "core/trainer.hpp"
#include "obs/event_trace.hpp"
#include "obs/sink.hpp"
#include "persist/checkpoint.hpp"
#include "tuning/hardware_network.hpp"
#include "xbar/executor.hpp"

namespace xbarlife::core {
namespace {

/// Restores the serial default and a clear shutdown flag, whatever a test
/// did.
struct EnvGuard {
  ~EnvGuard() {
    set_parallel_threads(1);
    reset_shutdown();
  }
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.name = "resume-tiny";
  cfg.model = ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 24;
  cfg.dataset.test_per_class = 6;
  cfg.dataset.noise = 0.1;
  cfg.train_config.epochs = 4;
  cfg.train_config.batch = 16;
  cfg.train_config.learning_rate = 0.05;
  cfg.lifetime.max_sessions = 4;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

/// The persist meta events carry no seq and depend on the kill pattern,
/// so the resume contract excludes them (docs/output_schema.md).
bool is_meta_line(const std::string& line) {
  return line.rfind("{\"event\":\"checkpoint_saved\"", 0) == 0 ||
         line.rfind("{\"event\":\"resume\"", 0) == 0;
}

/// Drops one wall-clock field (t_ms / wall_ms) from an event line.
std::string strip_field(std::string line, const std::string& name) {
  const std::string needle = ",\"" + name + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return line;
  }
  std::size_t end = pos + needle.size();
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
    ++end;
  }
  line.erase(pos, end - pos);
  return line;
}

/// Canonical trace text for resume comparisons: meta lines dropped, the
/// wall-clock fields (t_ms, span wall_ms) stripped, one event per line.
std::string canonical_trace(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    if (is_meta_line(line)) {
      continue;
    }
    out += strip_field(strip_field(line, "t_ms"), "wall_ms");
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------
// Trainer: per-epoch snapshots.

TrainHistory run_trainer_checkpointed(const ExperimentConfig& cfg,
                                      const std::string& path,
                                      obs::EventTrace* trace) {
  persist::CheckpointStore store(path);
  obs::Obs obs;
  obs.trace = trace;
  return train_model(cfg, data::make_synthetic(cfg.dataset),
                     /*skewed=*/true, obs, &store)
      .history;
}

TEST(TrainerCheckpoint, KillAtEveryEpochBoundaryResumesBitIdentically) {
  EnvGuard guard;
  const ExperimentConfig cfg = tiny_config();

  // Checkpoint mode must not change the numbers.
  const TrainHistory plain = train_model(cfg, /*skewed=*/true).history;

  const std::string ref_path = temp_path("resume_train_ref.ckpt");
  remove_generations(ref_path);
  obs::MemorySink ref_sink;
  obs::EventTrace ref_trace(&ref_sink);
  const TrainHistory reference =
      run_trainer_checkpointed(cfg, ref_path, &ref_trace);
  EXPECT_EQ(train_history_json(reference).dump(),
            train_history_json(plain).dump());

  // Kill at every epoch boundary: with the shutdown flag pre-set, each
  // attempt restores, advances exactly one epoch, snapshots, and raises
  // InterruptedError — except the attempt that finishes the final epoch,
  // which completes despite the pending signal.
  const std::string killed_path = temp_path("resume_train_killed.ckpt");
  remove_generations(killed_path);
  obs::MemorySink killed_sink;
  obs::EventTrace killed_trace(&killed_sink);
  TrainHistory resumed;
  std::size_t interrupts = 0;
  for (std::size_t attempt = 0; attempt < 32; ++attempt) {
    request_shutdown();
    try {
      resumed = run_trainer_checkpointed(cfg, killed_path, &killed_trace);
      reset_shutdown();
      break;
    } catch (const InterruptedError&) {
      reset_shutdown();
      ++interrupts;
    }
  }
  EXPECT_EQ(interrupts, cfg.train_config.epochs - 1);
  EXPECT_EQ(train_history_json(resumed).dump(),
            train_history_json(reference).dump());
  EXPECT_EQ(canonical_trace(killed_sink.lines()),
            canonical_trace(ref_sink.lines()));
  remove_generations(ref_path);
  remove_generations(killed_path);
}

// ---------------------------------------------------------------------
// Lifetime protocol: per-session snapshots (training re-runs
// deterministically on every resume attempt).

TEST(LifetimeCheckpoint, KillAtEverySessionBoundaryResumesBitIdentically) {
  EnvGuard guard;
  const ExperimentConfig cfg = tiny_config();
  const Scenario scenario = Scenario::kSTAT;

  const ScenarioOutcome plain = run_scenario(cfg, scenario);

  const std::string ref_path = temp_path("resume_life_ref.ckpt");
  remove_generations(ref_path);
  obs::MemorySink ref_sink;
  obs::EventTrace ref_trace(&ref_sink);
  obs::Obs ref_obs;
  ref_obs.trace = &ref_trace;
  persist::CheckpointStore ref_store(ref_path);
  const ScenarioOutcome reference =
      run_scenario(cfg, scenario, ref_obs, &ref_store);
  EXPECT_EQ(scenario_outcome_json(reference).dump(),
            scenario_outcome_json(plain).dump());
  EXPECT_GE(ref_store.generation(),
            reference.lifetime.sessions.size());

  const std::string killed_path = temp_path("resume_life_killed.ckpt");
  remove_generations(killed_path);
  obs::MemorySink killed_sink;
  obs::EventTrace killed_trace(&killed_sink);
  ScenarioOutcome resumed;
  std::size_t interrupts = 0;
  bool completed = false;
  for (std::size_t attempt = 0; attempt < 32 && !completed; ++attempt) {
    obs::Obs obs;
    obs.trace = &killed_trace;
    persist::CheckpointStore store(killed_path);
    request_shutdown();
    try {
      resumed = run_scenario(cfg, scenario, obs, &store);
      completed = true;
    } catch (const InterruptedError&) {
      ++interrupts;
    }
    reset_shutdown();
  }
  ASSERT_TRUE(completed);
  EXPECT_GE(interrupts, 1U);
  EXPECT_EQ(scenario_outcome_json(resumed).dump(),
            scenario_outcome_json(reference).dump());
  EXPECT_EQ(canonical_trace(killed_sink.lines()),
            canonical_trace(ref_sink.lines()));
  remove_generations(ref_path);
  remove_generations(killed_path);
}

/// run_scenario with every sequence programmed through `executor`: the
/// train, deploy and lifetime steps of run_scenario and run_trained.
ScenarioOutcome run_scenario_on(const ExperimentConfig& cfg, Scenario s,
                                const xbar::ProgramExecutor& executor,
                                persist::CheckpointStore* store) {
  const data::TrainTest data = data::make_synthetic(cfg.dataset);
  TrainedModel tm = train_model(cfg, data, uses_skewed_training(s));
  ScenarioOutcome outcome;
  outcome.scenario = s;
  outcome.software_accuracy = tm.history.final_test_accuracy;
  outcome.tuning_target =
      cfg.target_accuracy_fraction * outcome.software_accuracy;
  LifetimeConfig lc = cfg.lifetime;
  lc.tuning.target_accuracy = outcome.tuning_target;
  tuning::HardwareNetwork hw(tm.network, cfg.device, cfg.aging, cfg.faults,
                             executor);
  outcome.lifetime = LifetimeSimulator(lc).run(
      hw, data.train, data.test, mapping_policy(s), obs::Obs{}, store);
  return outcome;
}

// Mid-campaign snapshots are executor-portable: a faulted, ladder-enabled
// campaign killed at every session boundary must resume byte-identically
// even when the resuming attempts alternate between the batched sim
// executor and the per-cell reference — the checkpointed crossbar state
// and the programming semantics are independent of the executor.
TEST(LifetimeCheckpoint, FaultedLadderCampaignResumesAcrossBackends) {
  EnvGuard guard;
  ExperimentConfig cfg = tiny_config();
  cfg.faults.nonideal.stuck_off_fraction = 0.1;
  cfg.faults.nonideal.write_noise_sigma = 0.03;
  cfg.faults.spare_rows = 2;
  cfg.faults.fault_seed = 11;
  cfg.lifetime.resilience.ladder_enabled = true;
  const Scenario scenario = Scenario::kSTAT;

  const ScenarioOutcome reference = run_scenario(cfg, scenario);
  const xbar::SimExecutor sim;
  const xbar::PerCellExecutor percell;

  const std::string killed_path = temp_path("resume_ladder_killed.ckpt");
  remove_generations(killed_path);
  ScenarioOutcome resumed;
  std::size_t interrupts = 0;
  bool completed = false;
  for (std::size_t attempt = 0; attempt < 32 && !completed; ++attempt) {
    const xbar::ProgramExecutor& executor =
        attempt % 2 == 0 ? static_cast<const xbar::ProgramExecutor&>(sim)
                         : percell;
    persist::CheckpointStore store(killed_path);
    request_shutdown();
    try {
      resumed = run_scenario_on(cfg, scenario, executor, &store);
      completed = true;
    } catch (const InterruptedError&) {
      ++interrupts;
    }
    reset_shutdown();
  }
  ASSERT_TRUE(completed);
  EXPECT_GE(interrupts, 1U);
  EXPECT_EQ(scenario_outcome_json(resumed).dump(),
            scenario_outcome_json(reference).dump());
  remove_generations(killed_path);
}

// ---------------------------------------------------------------------
// Checkpointed sweep engine: per-chunk snapshots, any thread count.

std::string sweep_doc(const SweepOutcome& outcome) {
  std::string out;
  for (const SweepJobResult& job : outcome.jobs) {
    out += job.entry_json;
    out += '\n';
  }
  return out;
}

SweepOutcome run_sweep_checkpointed(
    const std::vector<ScenarioJob>& jobs, const std::string& path,
    obs::EventTrace* trace) {
  ScenarioRunner runner(33);
  SweepConfig config;
  config.checkpoint_path = path;
  config.chunk = 2;
  obs::Obs obs;
  obs.trace = trace;
  return run_sweep(
      runner, jobs, config,
      [](std::size_t, const ScenarioSweepEntry& entry) {
        return sweep_entry_json(entry, /*with_wall_ms=*/false).dump();
      },
      obs);
}

TEST(SweepCheckpoint, KillAtEveryChunkBoundaryIsByteIdentical) {
  EnvGuard guard;
  const ExperimentConfig cfg = tiny_config();
  const std::vector<ScenarioJob> jobs = ScenarioRunner::cross(
      cfg, {Scenario::kTT, Scenario::kSTT, Scenario::kSTAT}, 2);

  std::string first_doc;
  std::string first_trace;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);

    const std::string ref_path = temp_path("resume_sweep_ref.ckpt");
    remove_generations(ref_path);
    obs::MemorySink ref_sink;
    obs::EventTrace ref_trace(&ref_sink);
    const SweepOutcome reference =
        run_sweep_checkpointed(jobs, ref_path, &ref_trace);
    EXPECT_FALSE(reference.resumed);
    EXPECT_EQ(reference.executed_jobs, jobs.size());

    const std::string killed_path = temp_path("resume_sweep_killed.ckpt");
    remove_generations(killed_path);
    obs::MemorySink killed_sink;
    obs::EventTrace killed_trace(&killed_sink);
    SweepOutcome resumed;
    std::size_t interrupts = 0;
    bool completed = false;
    for (std::size_t attempt = 0; attempt < 32 && !completed; ++attempt) {
      request_shutdown();
      try {
        resumed = run_sweep_checkpointed(jobs, killed_path, &killed_trace);
        completed = true;
      } catch (const InterruptedError&) {
        ++interrupts;
      }
      reset_shutdown();
    }
    ASSERT_TRUE(completed);
    EXPECT_GE(interrupts, 1U);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_GT(resumed.resumed_jobs, 0U);
    EXPECT_EQ(resumed.resumed_jobs + resumed.executed_jobs, jobs.size());

    // Killed-and-resumed == uninterrupted, and identical across thread
    // counts: document bytes and canonical trace bytes.
    EXPECT_EQ(sweep_doc(resumed), sweep_doc(reference));
    EXPECT_EQ(canonical_trace(killed_sink.lines()),
              canonical_trace(ref_sink.lines()));
    if (first_doc.empty()) {
      first_doc = sweep_doc(reference);
      first_trace = canonical_trace(ref_sink.lines());
    } else {
      EXPECT_EQ(sweep_doc(reference), first_doc);
      EXPECT_EQ(canonical_trace(ref_sink.lines()), first_trace);
    }
    remove_generations(ref_path);
    remove_generations(killed_path);
  }
}

// ---------------------------------------------------------------------
// Per-job watchdog.

TEST(JobDeadline, WatchdogThrowsOnExpiryAndNests) {
  check_job_deadline();  // unarmed: no-op
  {
    const JobDeadline outer(60000.0, "outer");
    check_job_deadline();  // far from expiry
    {
      const JobDeadline inner(0.01, "inner-job");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      try {
        check_job_deadline();
        FAIL() << "expired inner deadline did not throw";
      } catch (const TimeoutError& e) {
        EXPECT_NE(std::string(e.what()).find("inner-job"),
                  std::string::npos);
      }
    }
    // The inner deadline unwound: the enclosing one is active again and
    // still has most of a minute left.
    check_job_deadline();
  }
  check_job_deadline();  // fully unwound: no-op again
}

TEST(Watchdog, TimedOutJobsAreIsolatedFailuresWithTimedOutSet) {
  EnvGuard guard;
  const ExperimentConfig cfg = tiny_config();
  ScenarioRunner runner(33);
  runner.set_job_timeout_ms(0.001);
  const std::vector<ScenarioJob> jobs =
      ScenarioRunner::cross(cfg, {Scenario::kTT, Scenario::kSTT}, 1);
  const std::vector<ScenarioSweepEntry> entries = runner.run(jobs);
  ASSERT_EQ(entries.size(), jobs.size());
  for (const ScenarioSweepEntry& entry : entries) {
    EXPECT_TRUE(entry.failed);
    EXPECT_TRUE(entry.timed_out);
    EXPECT_FALSE(entry.error.empty());
    // --strict counts timed-out jobs as failures; the document marks the
    // subtype so consumers can tell a watchdog kill from a crash.
    const std::string json = sweep_entry_json(entry, true).dump();
    EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
    EXPECT_NE(json.find("\"timed_out\":true"), std::string::npos);
  }
}

TEST(Watchdog, FaultCampaignCountsTimedOutJobs) {
  EnvGuard guard;
  FaultCampaignConfig cc;
  cc.base = tiny_config();
  cc.replicates = 1;
  cc.campaign_seed = 33;
  FaultPoint clean;
  clean.label = "clean";
  cc.points.push_back(clean);
  cc.job_timeout_ms = 0.001;
  const SweepOutcome result = run_fault_campaign(cc);
  EXPECT_EQ(result.timed_out_jobs, result.jobs.size());
  // Timed-out jobs are failed jobs: the --strict gate trips on them.
  EXPECT_EQ(result.failed_jobs, result.jobs.size());
  EXPECT_NE(fault_campaign_json(result).dump().find("\"timed_out\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace xbarlife::core
