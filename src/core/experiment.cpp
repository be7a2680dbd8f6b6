#include "core/experiment.hpp"

#include <memory>

#include "common/error.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::core {

/// Penalty of traditional ("T") training.
constexpr double kL2Lambda = 1e-4;

const ScenarioOutcome& ExperimentResult::outcome(Scenario s) const {
  const auto& slot = scenarios[static_cast<std::size_t>(s)];
  XB_CHECK(slot.has_value(),
           std::string("scenario not run: ") + to_string(s));
  return *slot;
}

double ExperimentResult::lifetime_ratio(Scenario s) const {
  const auto base = static_cast<double>(
      outcome(Scenario::kTT).lifetime.lifetime_applications);
  if (base == 0.0) {
    return 0.0;
  }
  return static_cast<double>(outcome(s).lifetime.lifetime_applications) /
         base;
}

nn::Network build_model(const ExperimentConfig& config, Rng& rng) {
  const nn::ImageSpec spec{config.dataset.channels, config.dataset.height,
                           config.dataset.width};
  switch (config.model) {
    case ExperimentConfig::Model::kMlp:
      return nn::make_mlp(spec.features(), config.mlp_hidden,
                          config.dataset.classes, rng);
    case ExperimentConfig::Model::kLeNet5:
      return nn::make_lenet5(spec, config.dataset.classes, rng);
    case ExperimentConfig::Model::kVgg16:
      return nn::make_vgg16(spec, config.dataset.classes, config.vgg_width,
                            rng);
  }
  throw InvalidArgument("unknown model");
}

TrainedModel train_model(const ExperimentConfig& config,
                         const data::TrainTest& data, bool skewed,
                         const obs::Obs& obs,
                         persist::CheckpointStore* store) {
  Rng rng(config.seed);
  TrainedModel tm{build_model(config, rng), {}};
  std::unique_ptr<nn::Regularizer> reg;
  if (skewed) {
    reg = std::make_unique<nn::SkewedL2Regularizer>(
        config.skew.lambda1, config.skew.lambda2, config.skew.omega_factor);
  } else {
    reg = std::make_unique<nn::L2Regularizer>(kL2Lambda);
  }
  Trainer trainer(tm.network, data, config.train_config, reg.get());
  tm.history = trainer.run(obs, store);
  return tm;
}

TrainedModel train_model(const ExperimentConfig& config, bool skewed,
                         const obs::Obs& obs) {
  return train_model(config, data::make_synthetic(config.dataset), skewed,
                     obs);
}

data::TrainTest render_dataset(const data::SyntheticSpec& spec,
                               const obs::Obs& obs) {
  obs::Obs profile;
  profile.profiler = obs.profiler;
  const obs::Span span(profile, "data.make_synthetic");
  return data::make_synthetic(spec);
}

std::string dataset_key(const data::SyntheticSpec& spec) {
  persist::StateWriter w;
  w.u64(spec.classes);
  w.u64(spec.train_per_class);
  w.u64(spec.test_per_class);
  w.u64(spec.channels);
  w.u64(spec.height);
  w.u64(spec.width);
  w.f64(spec.noise);
  w.u64(spec.texture_waves);
  w.u64(spec.seed);
  return w.release();
}

std::string training_key(const ExperimentConfig& config, bool skewed) {
  persist::StateWriter w;
  w.str(dataset_key(config.dataset));
  w.u64(config.seed);
  w.u8(static_cast<std::uint8_t>(config.model));
  w.u64(config.mlp_hidden.size());
  for (const std::size_t width : config.mlp_hidden) {
    w.u64(width);
  }
  w.u64(config.vgg_width);
  const TrainConfig& tc = config.train_config;
  w.u64(tc.epochs);
  w.u64(tc.batch);
  w.f64(tc.learning_rate);
  w.f64(config.skew.lambda1);
  w.f64(config.skew.lambda2);
  w.f64(config.skew.omega_factor);
  w.boolean(skewed);
  return w.release();
}

std::string scenario_key(const ExperimentConfig& config, Scenario s) {
  persist::StateWriter w;
  w.str(training_key(config, uses_skewed_training(s)));
  w.u8(static_cast<std::uint8_t>(s));
  const device::DeviceParams& d = config.device;
  const aging::AgingParams& a = config.aging;
  const xbar::NonidealityConfig& n = config.faults.nonideal;
  const LifetimeConfig& lc = config.lifetime;
  const tuning::TuningConfig& tc = lc.tuning;
  const resilience::ResilienceConfig& rc = lc.resilience;
  for (const double v :
       {d.r_min_fresh, d.r_max_fresh, d.v_prog, d.t_pulse_s,
        d.temperature_k, d.compliance_current_a, a.activation_energy_ev,
        a.reference_temp_k, a.reference_current_a, a.current_exponent,
        a.a_f, a.m_f, a.a_g, a.m_g, a.r_floor, a.thermal_crosstalk,
        n.write_noise_sigma, n.read_noise_sigma, n.stuck_off_fraction,
        n.stuck_on_fraction, n.line_resistance, tc.target_accuracy,
        tc.min_grad_fraction, tc.step_fraction, lc.drift.sigma,
        lc.rescue_switch_margin, rc.degraded_accuracy_floor,
        config.absolute_tuning_target, config.target_accuracy_fraction}) {
    w.f64(v);
  }
  for (const std::uint64_t v :
       {std::uint64_t{d.levels}, std::uint64_t{config.faults.spare_rows},
        config.faults.fault_seed, std::uint64_t{lc.levels},
        lc.apps_per_session, std::uint64_t{lc.max_sessions},
        std::uint64_t{tc.max_iterations}, std::uint64_t{tc.batch},
        std::uint64_t{tc.eval_samples}, lc.drift_seed,
        std::uint64_t{lc.selection_eval_samples}}) {
    w.u64(v);
  }
  for (const bool v : {tc.quantized_eval, rc.ladder_enabled}) {
    w.boolean(v);
  }
  return w.release();
}

TrainedParams capture_params(TrainedModel& tm) {
  TrainedParams out;
  out.history = tm.history;
  for (const nn::ParamRef& p : tm.network.params()) {
    out.values.push_back(*p.value);
    out.grads.push_back(*p.grad);
  }
  return out;
}

TrainedModel rebuild_model(const ExperimentConfig& config,
                           const TrainedParams& params) {
  Rng rng(config.seed);
  TrainedModel tm{build_model(config, rng), params.history};
  const std::vector<nn::ParamRef> refs = tm.network.params();
  // Equal training keys imply equal models; guard the invariant anyway,
  // since a tensor assignment would silently take the other shape.
  XB_ASSERT(refs.size() == params.values.size(),
            "trained parameters do not match the configured model");
  for (std::size_t i = 0; i < refs.size(); ++i) {
    XB_ASSERT(refs[i].value->shape() == params.values[i].shape(),
              "trained parameter shape does not match " + refs[i].name);
    *refs[i].value = params.values[i];
    *refs[i].grad = params.grads[i];
  }
  return tm;
}

std::shared_ptr<const TrainedParams> share_training(
    SharedSlots<TrainedParams>& trainings, std::size_t k,
    const ExperimentConfig& config, const data::TrainTest& data,
    bool skewed, const obs::Obs& obs) {
  return trainings.acquire(k, [&] {
    TrainedModel tm = train_model(config, data, skewed, obs);
    return std::make_shared<const TrainedParams>(capture_params(tm));
  });
}

ScenarioOutcome run_scenario(const ExperimentConfig& config, Scenario s,
                             const obs::Obs& obs,
                             persist::CheckpointStore* store) {
  const obs::Span scenario_span(run_level_obs(obs, store),
                                "experiment.scenario");
  const data::TrainTest data = render_dataset(config.dataset, obs);
  // Checkpoint mode re-runs the (deterministic) training phase on every
  // resume, so it runs unobserved: a resumed run's trace would otherwise
  // repeat the training events an uninterrupted run emits exactly once.
  TrainedModel tm = train_model(config, data, uses_skewed_training(s),
                                store == nullptr ? obs : obs::Obs{});
  return run_trained(config, s, std::move(tm), data, obs, store);
}

namespace {

/// Everything of a scenario's outcome but its lifetime.
ScenarioOutcome trained_outcome(const ExperimentConfig& config, Scenario s,
                                const TrainHistory& history) {
  ScenarioOutcome outcome;
  outcome.scenario = s;
  outcome.software_accuracy = history.final_test_accuracy;
  outcome.tuning_target =
      config.absolute_tuning_target > 0.0
          ? config.absolute_tuning_target
          : config.target_accuracy_fraction * outcome.software_accuracy;
  return outcome;
}

}  // namespace

ScenarioOutcome run_trained(const ExperimentConfig& config, Scenario s,
                            TrainedModel tm, const data::TrainTest& data,
                            const obs::Obs& obs,
                            persist::CheckpointStore* store,
                            AgingAwareRide* ride) {
  ScenarioOutcome outcome = trained_outcome(config, s, tm.history);
  LifetimeConfig lc = config.lifetime;
  lc.tuning.target_accuracy = outcome.tuning_target;

  tuning::HardwareNetwork hw(tm.network, config.device, config.aging,
                             config.faults);
  LifetimeSimulator sim(lc);
  outcome.lifetime = sim.run(hw, data.train, data.test, mapping_policy(s),
                             obs, store, ride);
  return outcome;
}

ScenarioOutcome ride_aging_aware(const ExperimentConfig& config,
                                 AgingAwareRide& ride,
                                 const TrainedParams& params,
                                 const data::TrainTest& data,
                                 std::string_view owner,
                                 const obs::Obs& obs) {
  if (!ride.settled()) {
    ride = AgingAwareRide{};
    ride.stop_at_fork = true;
    run_trained(config, Scenario::kSTT, rebuild_model(config, params), data,
                {}, nullptr, &ride);
  }
  if (obs.trace_enabled()) {
    std::vector<obs::Field> fields{
        {"owner", owner},
        {"sessions", ride.shared_sessions()},
        {"fork_session", ride.fork.has_value()
                             ? obs::JsonValue(ride.fork->session)
                             : obs::JsonValue(nullptr)}};
    if (ride.fork.has_value()) {
      fields.emplace_back("layer", ride.fork->shadow.layer);
      fields.emplace_back("fresh_bound", config.device.r_max_fresh);
      fields.emplace_back("aware_bound", ride.fork->shadow.aware_bound);
    }
    obs.event("lifetime_shared", fields);
  }
  if (ride.fork.has_value()) {
    return run_trained(config, Scenario::kSTAT, rebuild_model(config, params),
                       data, obs, nullptr, &ride);
  }
  ScenarioOutcome outcome =
      trained_outcome(config, Scenario::kSTAT, params.history);
  outcome.lifetime = *ride.unforked;
  obs.set_gauge("lifetime.applications_final",
                static_cast<double>(outcome.lifetime.lifetime_applications));
  return outcome;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const obs::Obs& obs) {
  ExperimentResult result;
  result.name = config.name;
  ExperimentConfig shared = config;
  const data::TrainTest data = render_dataset(config.dataset, obs);
  const auto record = [&](ScenarioOutcome outcome) -> const ScenarioOutcome& {
    auto& slot = result.scenarios[static_cast<std::size_t>(outcome.scenario)];
    slot = std::move(outcome);
    return *slot;
  };
  {
    const obs::Span scenario_span(obs, "experiment.scenario");
    const ScenarioOutcome& tt =
        record(run_trained(shared, Scenario::kTT,
                           train_model(shared, data, false, obs), data, obs));
    result.accuracy_traditional = tt.software_accuracy;
    // One application-level target for every scenario (see the field's
    // documentation): anchor it to the baseline network.
    if (shared.absolute_tuning_target <= 0.0) {
      shared.absolute_tuning_target = tt.tuning_target;
    }
  }
  // ST+T and ST+AT share one skewed training, and ST+AT rides on ST+T's
  // lifetime up to its fork.
  TrainedParams skewed;
  AgingAwareRide ride;
  {
    const obs::Span scenario_span(obs, "experiment.scenario");
    TrainedModel tm = train_model(shared, data, true, obs);
    skewed = capture_params(tm);
    result.accuracy_skewed =
        record(run_trained(shared, Scenario::kSTT, std::move(tm), data, obs,
                           nullptr, &ride))
            .software_accuracy;
  }
  const obs::Span scenario_span(obs, "experiment.scenario");
  record(ride_aging_aware(shared, ride, skewed, data,
                          to_string(Scenario::kSTT), obs));
  return result;
}

ExperimentConfig lenet_experiment_config() {
  ExperimentConfig c;
  c.name = "LeNet-5 / SynthCifar10";
  c.model = ExperimentConfig::Model::kLeNet5;
  c.dataset.classes = 10;
  c.dataset.train_per_class = 48;
  c.dataset.test_per_class = 16;
  c.dataset.channels = 3;
  c.dataset.height = 16;
  c.dataset.width = 16;
  c.dataset.noise = 0.3;
  c.dataset.seed = 11;
  c.train_config.epochs = 8;
  c.train_config.batch = 16;
  c.train_config.learning_rate = 0.03;
  // Table II flavour: LeNet-5 uses a strongly asymmetric penalty.
  c.skew.lambda1 = 5e-2;
  c.skew.lambda2 = 1e-3;
  c.skew.omega_factor = -1.0;
  c.lifetime.levels = 32;
  c.lifetime.apps_per_session = 100000;
  c.lifetime.max_sessions = 300;
  c.lifetime.tuning.max_iterations = 150;
  c.lifetime.tuning.batch = 16;
  c.lifetime.tuning.min_grad_fraction = 2.0;
  c.lifetime.tuning.eval_samples = 80;
  c.lifetime.selection_eval_samples = 80;
  c.lifetime.drift.sigma = 0.08;
  c.target_accuracy_fraction = 0.93;
  c.seed = 7;
  return c;
}

ExperimentConfig vgg_experiment_config() {
  ExperimentConfig c;
  c.name = "VGG-16 / SynthCifar100";
  c.model = ExperimentConfig::Model::kVgg16;
  c.vgg_width = 4;
  c.dataset.classes = 100;
  c.dataset.train_per_class = 12;
  c.dataset.test_per_class = 4;
  c.dataset.channels = 3;
  c.dataset.height = 32;
  c.dataset.width = 32;
  c.dataset.noise = 0.2;
  c.dataset.texture_waves = 6;
  c.dataset.seed = 13;
  c.train_config.epochs = 20;
  c.train_config.batch = 16;
  // Thirteen conv layers without normalization need a small step.
  c.train_config.learning_rate = 0.005;
  // Table II flavour: VGG-16 is sensitive to asymmetric (and strong)
  // penalties, so lambda1 == lambda2 and both stay small — the skew comes
  // from the shifted reference point alone.
  c.skew.lambda1 = 3e-4;
  c.skew.lambda2 = 3e-4;
  c.skew.omega_factor = -1.0;
  c.lifetime.levels = 32;
  c.lifetime.apps_per_session = 100000;
  c.lifetime.max_sessions = 150;
  c.lifetime.tuning.max_iterations = 150;
  c.lifetime.tuning.batch = 16;
  // Thirteen quantized conv layers compound errors, so tuning pulses must
  // be finer and more selective than on LeNet-5 or the array oscillates.
  c.lifetime.tuning.min_grad_fraction = 3.0;
  c.lifetime.tuning.step_fraction = 0.005;
  c.lifetime.tuning.eval_samples = 60;
  c.lifetime.selection_eval_samples = 60;
  // Sixteen quantized layers amplify drift, so the per-session drift and
  // the application-level target are gentler than LeNet-5's.
  c.lifetime.drift.sigma = 0.04;
  c.target_accuracy_fraction = 0.70;
  c.seed = 9;
  return c;
}

}  // namespace xbarlife::core
