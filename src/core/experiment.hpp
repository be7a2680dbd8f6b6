// End-to-end experiment runner: dataset -> software training (traditional
// or skewed) -> deployment -> lifetime simulation, for each scenario of the
// paper. The bench binaries (Table I, Figs. 9-11) are thin wrappers over
// these functions.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/lifetime.hpp"
#include "core/shared_slots.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"

namespace xbarlife::core {

struct ExperimentConfig {
  std::string name = "experiment";

  enum class Model { kMlp, kLeNet5, kVgg16 } model = Model::kLeNet5;
  std::size_t vgg_width = 2;      ///< VGG-16 channel multiplier
  std::vector<std::size_t> mlp_hidden{64, 32};

  data::SyntheticSpec dataset;    ///< synthetic data spec (see data/)

  TrainConfig train_config;
  SkewedTrainingParams skew;      ///< Table II-style parameters

  device::DeviceParams device;
  aging::AgingParams aging;
  /// Hardware-fault model installed on every deployed crossbar; inactive
  /// by default (ideal arrays, legacy behaviour).
  tuning::HardwareFaultConfig faults;
  LifetimeConfig lifetime;

  /// The application's required accuracy is a property of the deployment,
  /// not of the training flavour: the paper fixes one target per network.
  /// When absolute_tuning_target > 0 it is used directly; otherwise the
  /// target is target_accuracy_fraction times the *traditionally trained*
  /// network's software accuracy (run_experiment computes this once and
  /// shares it across all three scenarios; a standalone run_scenario
  /// derives it from its own training as a fallback).
  double absolute_tuning_target = 0.0;
  double target_accuracy_fraction = 0.9;

  std::uint64_t seed = 7;
};

/// Outcome of one scenario's full run.
struct ScenarioOutcome {
  Scenario scenario = Scenario::kTT;
  double software_accuracy = 0.0;  ///< test accuracy after training
  double tuning_target = 0.0;      ///< accuracy the tuner must reach
  LifetimeResult lifetime;
};

struct ExperimentResult {
  std::string name;
  double accuracy_traditional = 0.0;  ///< Table I "accuracy w/o skew"
  double accuracy_skewed = 0.0;       ///< Table I "accuracy w/ skew"
  std::array<std::optional<ScenarioOutcome>, 3> scenarios;

  const ScenarioOutcome& outcome(Scenario s) const;
  /// Lifetime of `s` normalized to T+T (Table I's last columns).
  double lifetime_ratio(Scenario s) const;
};

/// Builds the configured model.
nn::Network build_model(const ExperimentConfig& config, Rng& rng);

/// Trains a fresh instance of the configured model on `data` with either
/// the traditional L2 (lambda 1e-4) or the skewed regularizer. Returns the
/// trained network and its history. With a `store`, the run snapshots
/// after every epoch and resumes from the newest valid snapshot (see
/// Trainer::run).
struct TrainedModel {
  nn::Network network;
  TrainHistory history;
};
TrainedModel train_model(const ExperimentConfig& config,
                         const data::TrainTest& data, bool skewed,
                         const obs::Obs& obs = {},
                         persist::CheckpointStore* store = nullptr);
/// As above, on the configured synthetic dataset.
TrainedModel train_model(const ExperimentConfig& config, bool skewed,
                         const obs::Obs& obs = {});

/// make_synthetic(spec) under a `data.make_synthetic` span that only the
/// profiler sees: event traces and metrics documents keep their shape.
data::TrainTest render_dataset(const data::SyntheticSpec& spec,
                               const obs::Obs& obs);

/// Identity of a training run: the exact persist::StateWriter bytes of
/// every field build_model, train_model and make_synthetic read (seed,
/// dataset, model, mlp_hidden, vgg_width, train_config, skew)
/// plus the flavour. Equal keys train bit-identical models, so jobs with
/// equal keys may share one training.
std::string training_key(const ExperimentConfig& config, bool skewed);
/// Identity of a synthetic dataset: the bytes of `spec` alone.
std::string dataset_key(const data::SyntheticSpec& spec);
/// Identity of a whole scenario run: the training_key plus the scenario
/// and every device, aging, fault, lifetime (max_sessions included) and
/// tuning-target field the deployment reads. Equal keys give
/// bit-identical outcomes. Only `name`, a label, is left out; a test
/// (ConfigKeys in core_scenario_runner_test) flips every other field.
std::string scenario_key(const ExperimentConfig& config, Scenario s);

/// A trained model's parameter values and gradients plus its history:
/// enough to rebuild an identical TrainedModel without retraining.
struct TrainedParams {
  std::vector<Tensor> values;
  std::vector<Tensor> grads;
  TrainHistory history;
};

/// Copies `tm`'s parameters and history.
TrainedParams capture_params(TrainedModel& tm);

/// Position `k`'s trained parameters out of `trainings`: the owner of its
/// key trains on `data` (observed through `obs`) and publishes the
/// captured parameters; every other position waits for them.
std::shared_ptr<const TrainedParams> share_training(
    SharedSlots<TrainedParams>& trainings, std::size_t k,
    const ExperimentConfig& config, const data::TrainTest& data,
    bool skewed, const obs::Obs& obs);

/// A network of its own from trained parameters (build_model with the
/// same seed, then the parameters loaded), since deployment mutates the
/// network it is given.
TrainedModel rebuild_model(const ExperimentConfig& config,
                           const TrainedParams& params);

/// Runs one scenario: trains (per the scenario's flavour), deploys, and
/// simulates the lifetime protocol. The optional observability handle is
/// threaded through training, deployment aging counters, tuning, and the
/// lifetime protocol (see obs/obs.hpp); the default handle disables all
/// instrumentation.
///
/// With a `store`, the lifetime phase snapshots after every session and
/// resumes from the newest valid generation; the training phase is
/// deterministic from the config seeds and simply re-runs on resume.
ScenarioOutcome run_scenario(const ExperimentConfig& config, Scenario s,
                             const obs::Obs& obs = {},
                             persist::CheckpointStore* store = nullptr);

/// The deploy + lifetime half of run_scenario: derives the tuning target
/// from `tm`'s history, deploys `tm` and simulates the lifetime on `data`.
/// With a `ride`, ST+AT rides on this ST+T run, or (for ST+AT) continues
/// from its fork (see LifetimeSimulator::run).
ScenarioOutcome run_trained(const ExperimentConfig& config, Scenario s,
                            TrainedModel tm, const data::TrainTest& data,
                            const obs::Obs& obs = {},
                            persist::CheckpointStore* store = nullptr,
                            AgingAwareRide* ride = nullptr);

/// ST+AT's outcome from the ride it took on the ST+T run labelled `owner`
/// (`config` is ST+AT's, whose scenario_key equals ST+T's apart from the
/// scenario): without a fork it is ST+T's lifetime; with one, ST+AT runs
/// on from the fork on a network rebuilt from `params`. A ride that did
/// not settle (its ST+T run never ran here, or failed before the fork)
/// is first taken alone, unobserved, up to the fork. `obs` sees one
/// `lifetime_shared` event, then ST+AT's events after the fork: the
/// shared prefix belongs to the ST+T run.
ScenarioOutcome ride_aging_aware(const ExperimentConfig& config,
                                 AgingAwareRide& ride,
                                 const TrainedParams& params,
                                 const data::TrainTest& data,
                                 std::string_view owner,
                                 const obs::Obs& obs = {});

/// Runs all three scenarios (T+T, ST+T, ST+AT) on one dataset; ST+T and
/// ST+AT share one skewed training, and ST+AT rides on ST+T's lifetime
/// up to its fork (ride_aging_aware).
ExperimentResult run_experiment(const ExperimentConfig& config,
                                const obs::Obs& obs = {});

/// Laptop-scale default configs mirroring the paper's two test cases.
ExperimentConfig lenet_experiment_config();
ExperimentConfig vgg_experiment_config();

}  // namespace xbarlife::core
