// Deterministic fan-out of independent lifetime scenarios.
//
// Table I / Fig. 10 style studies re-run the same tuning protocol once per
// scenario x replicate — an embarrassingly parallel sweep (the evaluation
// pattern of DNN-Life and the endurance-aware mapping line of work). The
// runner derives every job's seeds from Rng::fork(stream) — Rng's cached
// Box-Muller variate makes a generator unshareable across jobs — and
// merges outcomes by job index, so a threaded sweep is byte-identical to
// the serial one: scheduling never touches the numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/fork.hpp"

namespace xbarlife::core {

/// One independent sweep job: a full train -> deploy -> lifetime run.
struct ScenarioJob {
  std::string label;
  ExperimentConfig config;
  Scenario scenario = Scenario::kTT;
  /// Seed-stream index. Jobs sharing a stream get identical forked seeds,
  /// so the scenarios of one replicate compare on the same dataset,
  /// initialization, and drift sequence; distinct streams decorrelate
  /// replicates.
  std::uint64_t stream = 0;
};

/// run()'s per-job result, index-aligned with the submitted jobs.
struct ScenarioSweepEntry {
  std::string label;
  Scenario scenario = Scenario::kTT;
  std::uint64_t stream = 0;
  std::uint64_t seed = 0;        ///< forked model/training seed used
  std::uint64_t data_seed = 0;   ///< forked dataset seed used
  std::uint64_t drift_seed = 0;  ///< forked drift seed used
  std::uint64_t fault_seed = 0;  ///< forked hardware-fault seed used
  double wall_ms = 0.0;          ///< job wall-clock (not deterministic)
  /// A job that throws is recorded here instead of poisoning the sweep:
  /// `failed` is set, `error` holds the exception message, and `outcome`
  /// stays default-constructed. The other jobs' results are unaffected.
  bool failed = false;
  /// Failure subtype: the job was killed by the --job-timeout watchdog
  /// (TimeoutError). Always implies `failed`.
  bool timed_out = false;
  std::string error;
  ScenarioOutcome outcome;
};

class ScenarioRunner {
 public:
  /// `sweep_seed` is the root of every forked stream: one value pins the
  /// entire sweep, independent of thread count and scheduling.
  explicit ScenarioRunner(std::uint64_t sweep_seed = 0x5eedULL);

  std::uint64_t sweep_seed() const { return sweep_seed_; }

  /// Per-job watchdog budget in wall-clock ms; <= 0 disables it. A job
  /// that exceeds the budget is killed cooperatively (TimeoutError at the
  /// next epoch/session/iteration boundary) and isolated as a failed
  /// entry with `timed_out` set — the other jobs are unaffected.
  void set_job_timeout_ms(double timeout_ms) {
    job_timeout_ms_ = timeout_ms;
  }
  double job_timeout_ms() const { return job_timeout_ms_; }

  /// The job's config with seed / dataset.seed / lifetime.drift_seed /
  /// faults.fault_seed replaced by draws from
  /// Rng(sweep_seed).fork(job.stream): exactly what the job runs.
  ExperimentConfig forked_config(const ScenarioJob& job) const;

  /// Runs every job (across the shared thread pool when it has more than
  /// one thread) and returns entries in job order, each job on its
  /// forked_config().
  ///
  /// This is run_sweep (core/sweep_checkpoint.hpp) without a checkpoint:
  /// when observability is attached, every job runs against a private
  /// registry and an in-memory event trace (context field "job" = label);
  /// after the fan-out the buffered traces splice into `obs.trace`'s sink
  /// in job-index order, the registries merge into `obs.metrics` in the
  /// same order, and one `sweep_job_done` event closes each job — so the
  /// aggregated metrics and the event stream are byte-identical at any
  /// thread count (wall-clock fields aside).
  ///
  /// Jobs whose forked configs build the same dataset share one copy, and
  /// jobs with the same training_key() share one training (ST+T and ST+AT
  /// of a replicate), with bit-identical outcomes. A shared training's
  /// events, spans and train.* counters appear once, in the lowest-index
  /// job of the key that is not an ST+AT rider (see run_each). Each ST+AT
  /// job rides on the lifetime of an ST+T job whose scenario_key equals
  /// its own apart from the scenario (ride_aging_aware); the shared
  /// prefix is observed once, under the ST+T job.
  std::vector<ScenarioSweepEntry> run(const std::vector<ScenarioJob>& jobs,
                                      const obs::Obs& obs = {}) const;

  /// The grid engine's fan-out: runs jobs[i] for every i in `indices`
  /// (ascending) in one pass over the pool, one job per chunk, and hands
  /// each finished entry to `done(i, entry)` on the thread that ran it.
  /// Each job runs on its forked_config(), arms the per-job watchdog,
  /// isolates exceptions into a failed entry, and measures wall_ms.
  ///
  /// Datasets and trainings are shared within the pass only. Pairs are
  /// decided over the whole list: each ST+AT job rides on the lowest-index
  /// ST+T job with its scenario_key (apart from the scenario) that no
  /// other ST+AT job rides on. When both are in the pass, the ST+T job's
  /// task runs the pair and hands both entries to `done`, and the
  /// rider's own task returns at once; a rider whose owner is not in the
  /// pass, or failed before the fork, rides alone. A training is
  /// observed (through fork.job(i)) only when i is the lowest index of
  /// its key among the jobs that are not riders; any other job that has
  /// to train — on a resumed run, or when the owner ran in an earlier
  /// pass — trains unobserved. So serial == threaded and
  /// killed-and-resumed == uninterrupted stay byte-identical.
  void run_each(
      const std::vector<ScenarioJob>& jobs,
      const std::vector<std::size_t>& indices, obs::ObsFork& fork,
      const std::function<void(std::size_t, ScenarioSweepEntry)>& done)
      const;

  /// Convenience fan-out: `replicates` copies of `base` per scenario.
  /// Replicate r of every scenario shares stream r.
  static std::vector<ScenarioJob> cross(
      const ExperimentConfig& base, const std::vector<Scenario>& scenarios,
      std::size_t replicates = 1);

 private:
  std::uint64_t sweep_seed_;
  double job_timeout_ms_ = 0.0;
};

}  // namespace xbarlife::core
