#include "core/scenario_runner.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/sweep_checkpoint.hpp"

namespace xbarlife::core {

ScenarioRunner::ScenarioRunner(std::uint64_t sweep_seed)
    : sweep_seed_(sweep_seed) {}

ExperimentConfig ScenarioRunner::forked_config(const ScenarioJob& job) const {
  // The stream index — not the array index — selects the fork, so
  // reordering or filtering a job list never changes surviving jobs.
  Rng stream_rng = Rng(sweep_seed_).fork(job.stream);
  ExperimentConfig cfg = job.config;
  cfg.seed = stream_rng();
  cfg.dataset.seed = stream_rng();
  cfg.lifetime.drift_seed = stream_rng();
  // Drawn unconditionally (fourth in the stream) so fault-enabled and
  // fault-free sweeps share the first three seeds.
  cfg.faults.fault_seed = stream_rng();
  return cfg;
}

void ScenarioRunner::run_each(
    const std::vector<ScenarioJob>& jobs,
    const std::vector<std::size_t>& indices, obs::ObsFork& fork,
    const std::function<void(std::size_t, ScenarioSweepEntry)>& done)
    const {
  // Forked configs for the whole list: whether a job's training is
  // observed depends on the whole list, not on this pass.
  std::vector<ExperimentConfig> configs;
  std::vector<std::string> train_keys;
  std::vector<bool> observed;  ///< lowest index of its key in the list
  std::set<std::string> seen;
  configs.reserve(jobs.size());
  train_keys.reserve(jobs.size());
  for (const ScenarioJob& job : jobs) {
    configs.push_back(forked_config(job));
    train_keys.push_back(
        training_key(configs.back(), uses_skewed_training(job.scenario)));
    observed.push_back(seen.insert(train_keys.back()).second);
  }

  std::vector<std::string> data_keys;
  std::vector<std::string> pass_train_keys;
  for (const std::size_t i : indices) {
    data_keys.push_back(dataset_key(configs[i].dataset));
    pass_train_keys.push_back(train_keys[i]);
  }
  SharedSlots<data::TrainTest> datasets(data_keys);
  SharedSlots<TrainedParams> trainings(pass_train_keys);

  // One job per chunk. parallel_for claims chunks in ascending order,
  // which is what lets a job wait on a lower-index owner's slot.
  parallel_for(0, indices.size(), 1, [&](std::size_t begin,
                                         std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = indices[k];
      const ScenarioJob& job = jobs[i];
      const ExperimentConfig& cfg = configs[i];
      const obs::Obs job_obs = fork.job(i);
      ScenarioSweepEntry entry;
      entry.label = job.label;
      entry.scenario = job.scenario;
      entry.stream = job.stream;
      entry.seed = cfg.seed;
      entry.data_seed = cfg.dataset.seed;
      entry.drift_seed = cfg.lifetime.drift_seed;
      entry.fault_seed = cfg.faults.fault_seed;

      // Job root span for trace/profile only: the fan-in already records
      // the canonical sweep.job_ms histogram sample from entry.wall_ms.
      obs::Obs span_handle = job_obs;
      span_handle.metrics = nullptr;
      const auto start = std::chrono::steady_clock::now();
      std::exception_ptr interrupted;
      try {
        const JobDeadline deadline(job_timeout_ms_, job.label);
        const obs::Span job_span(span_handle, "sweep.job");
        const obs::Span scenario_span(job_obs, "experiment.scenario");
        const auto data = datasets.acquire(k, [&] {
          return std::make_shared<const data::TrainTest>(
              data::make_synthetic(cfg.dataset));
        });
        entry.outcome = run_trained(
            cfg, job.scenario,
            share_training(trainings, k, cfg, *data,
                           uses_skewed_training(job.scenario),
                           observed[i] ? job_obs : obs::Obs{}),
            *data, job_obs);
      } catch (const InterruptedError&) {
        // A shutdown request honoured mid-job (a remote retry backoff
        // polls it) is not a job failure: rethrown below, so the job is
        // neither recorded nor snapshotted and a resume reruns it.
        interrupted = std::current_exception();
      } catch (const TimeoutError& e) {
        // The watchdog fired: record the job as timed out (a failure
        // subtype) so --strict and the rollups can single it out.
        entry.failed = true;
        entry.timed_out = true;
        entry.error = e.what();
        entry.outcome = ScenarioOutcome{};
        entry.outcome.scenario = job.scenario;
      } catch (const std::exception& e) {
        // Error isolation: a throwing scenario becomes a failed entry —
        // the fan-out keeps going and the other jobs' results survive.
        entry.failed = true;
        entry.error = e.what();
        entry.outcome = ScenarioOutcome{};
        entry.outcome.scenario = job.scenario;
      }
      // A job that failed before taking its dataset or training must
      // still release them, or a later job waiting on its slot would hang.
      datasets.finish(k);
      trainings.finish(k);
      if (interrupted) {
        std::rethrow_exception(interrupted);
      }
      entry.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      done(i, std::move(entry));
    }
  });
}

std::vector<ScenarioSweepEntry> ScenarioRunner::run(
    const std::vector<ScenarioJob>& jobs, const obs::Obs& obs) const {
  // The grid engine without a checkpoint; its serializer keeps the full
  // entries instead of rendering a document.
  std::vector<ScenarioSweepEntry> entries(jobs.size());
  run_sweep(*this, jobs, SweepConfig{},
            [&entries](std::size_t i, ScenarioSweepEntry entry) {
              entries[i] = std::move(entry);
              return std::string();
            },
            obs);
  return entries;
}

std::vector<ScenarioJob> ScenarioRunner::cross(
    const ExperimentConfig& base, const std::vector<Scenario>& scenarios,
    std::size_t replicates) {
  XB_CHECK(replicates > 0, "sweep needs at least one replicate");
  std::vector<ScenarioJob> jobs;
  jobs.reserve(scenarios.size() * replicates);
  for (std::size_t rep = 0; rep < replicates; ++rep) {
    for (Scenario s : scenarios) {
      ScenarioJob job;
      job.label = std::string(to_string(s)) + "/r" + std::to_string(rep);
      job.config = base;
      job.scenario = s;
      job.stream = rep;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace xbarlife::core
