#include "core/scenario_runner.hpp"

#include <chrono>
#include <deque>
#include <exception>
#include <map>
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
  // Forked configs and pairs for the whole list: whether a job's training
  // is observed, and which ST+T run an ST+AT job rides on, depend on the
  // whole list, not on this pass.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t n = jobs.size();
  std::vector<ExperimentConfig> configs;
  std::vector<std::string> train_keys;
  configs.reserve(n);
  train_keys.reserve(n);
  // ST+T jobs by scenario key, ascending: an ST+AT job rides on the
  // lowest one its key matches apart from the scenario and that no other
  // ST+AT job rides on yet.
  std::map<std::string, std::deque<std::size_t>> free_owners;
  for (std::size_t i = 0; i < n; ++i) {
    configs.push_back(forked_config(jobs[i]));
    train_keys.push_back(training_key(
        configs.back(), uses_skewed_training(jobs[i].scenario)));
    if (jobs[i].scenario == Scenario::kSTT) {
      free_owners[scenario_key(configs.back(), Scenario::kSTT)].push_back(i);
    }
  }
  std::vector<std::size_t> owner_of(n, kNone);
  std::vector<std::size_t> follower_of(n, kNone);
  for (std::size_t i = 0; i < n; ++i) {
    if (jobs[i].scenario != Scenario::kSTAT) {
      continue;
    }
    const auto it = free_owners.find(scenario_key(configs[i], Scenario::kSTT));
    if (it != free_owners.end() && !it->second.empty()) {
      owner_of[i] = it->second.front();
      follower_of[owner_of[i]] = i;
      it->second.pop_front();
    }
  }
  // A training is observed in the lowest index of its key that trains
  // for itself in an uninterrupted run: a rider never does.
  std::vector<bool> observed(n, false);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < n; ++i) {
    observed[i] = owner_of[i] == kNone && seen.insert(train_keys[i]).second;
  }

  // A rider whose owner runs in this pass is run by the owner's task;
  // every other job of the pass takes a slot position.
  std::vector<bool> in_pass(n, false);
  for (const std::size_t i : indices) {
    in_pass[i] = true;
  }
  const auto carried = [&](std::size_t i) {
    return owner_of[i] != kNone && in_pass[owner_of[i]];
  };
  std::vector<std::size_t> position(n, kNone);
  std::vector<std::string> data_keys;
  std::vector<std::string> pass_train_keys;
  for (const std::size_t i : indices) {
    if (!carried(i)) {
      position[i] = data_keys.size();
      data_keys.push_back(dataset_key(configs[i].dataset));
      pass_train_keys.push_back(train_keys[i]);
    }
  }
  SharedSlots<data::TrainTest> datasets(data_keys);
  SharedSlots<TrainedParams> trainings(pass_train_keys);

  // Runs job i through `body` (which returns its outcome) with the job's
  // watchdog, spans and error isolation, and hands the entry to done().
  const auto run_job = [&](std::size_t i, const auto& body,
                           const auto& release) {
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
      entry.outcome = body(cfg, job_obs);
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
    release();
    if (interrupted) {
      std::rethrow_exception(interrupted);
    }
    entry.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    done(i, std::move(entry));
  };

  // One job per chunk. parallel_for claims chunks in ascending order,
  // which is what lets a job wait on a lower-index owner's slot.
  parallel_for(0, indices.size(), 1, [&](std::size_t begin,
                                         std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = indices[k];
      if (carried(i)) {
        continue;  // the owner's task runs it
      }
      const std::size_t p = position[i];
      const std::size_t rider =
          follower_of[i] != kNone && in_pass[follower_of[i]]
              ? follower_of[i]
              : kNone;
      // What the rider needs of its owner's run; a part the owner never
      // got to stays empty and the rider builds it alone.
      std::shared_ptr<const data::TrainTest> data;
      std::shared_ptr<const TrainedParams> params;
      AgingAwareRide ride;
      run_job(
          i,
          [&](const ExperimentConfig& cfg, const obs::Obs& job_obs) {
            data = datasets.acquire(p, [&] {
              return std::make_shared<const data::TrainTest>(
                  render_dataset(cfg.dataset, job_obs));
            });
            params = share_training(trainings, p, cfg, *data,
                                    uses_skewed_training(jobs[i].scenario),
                                    observed[i] ? job_obs : obs::Obs{});
            if (owner_of[i] != kNone) {
              return ride_aging_aware(cfg, ride, *params, *data,
                                      jobs[owner_of[i]].label, job_obs);
            }
            return run_trained(cfg, jobs[i].scenario,
                               rebuild_model(cfg, *params), *data, job_obs,
                               nullptr, rider != kNone ? &ride : nullptr);
          },
          // A job that failed before taking its dataset or training must
          // still release them, or a later job waiting on its slot would
          // hang.
          [&] {
            datasets.finish(p);
            trainings.finish(p);
          });
      if (rider == kNone) {
        continue;
      }
      run_job(
          rider,
          [&](const ExperimentConfig& cfg, const obs::Obs& job_obs) {
            if (data == nullptr) {
              data = std::make_shared<const data::TrainTest>(
                  render_dataset(cfg.dataset, job_obs));
            }
            if (params == nullptr) {
              TrainedModel tm = train_model(cfg, *data, /*skewed=*/true);
              params = std::make_shared<const TrainedParams>(
                  capture_params(tm));
            }
            return ride_aging_aware(cfg, ride, *params, *data,
                                    jobs[i].label, job_obs);
          },
          [] {});
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
