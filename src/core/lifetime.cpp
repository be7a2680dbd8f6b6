#include "core/lifetime.hpp"

#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::core {

LifetimeSimulator::LifetimeSimulator(LifetimeConfig config)
    : config_(config) {
  XB_CHECK(config.levels >= 2, "need at least two levels");
  XB_CHECK(config.apps_per_session > 0, "apps_per_session must be > 0");
  XB_CHECK(config.max_sessions > 0, "need at least one session");
  XB_CHECK(config.drift.sigma >= 0.0, "drift sigma must be >= 0");
}

void LifetimeSimulator::apply_drift(tuning::HardwareNetwork& hw, Rng& rng) {
  if (config_.drift.sigma == 0.0) {
    return;
  }
  for (std::size_t li = 0; li < hw.layer_count(); ++li) {
    hw.layer(li).xbar->drift_pass(rng, config_.drift.sigma);
  }
}

std::size_t AgingAwareRide::shared_sessions() const {
  if (unforked.has_value()) {
    return unforked->sessions.size();
  }
  // Every session before the fork's logged one record.
  return fork.has_value() ? fork->session : 0;
}

LifetimeState::LifetimeState(const LifetimeConfig& config,
                             tuning::HardwareNetwork& hw,
                             tuning::OnlineTuner& tuner,
                             tuning::MappingPolicy policy)
    : drift_rng(config.drift_seed),
      config_(config),
      hw_(&hw),
      tuner_(&tuner),
      policy_(policy) {}

std::string LifetimeState::kind() const { return "lifetime"; }

std::uint64_t LifetimeState::fingerprint() const {
  persist::Fingerprint fp;
  fp.add(std::string_view{"lifetime"});
  // Horizon knob (max_sessions) excluded: a finished run may resume
  // toward a longer cap.
  fp.add(static_cast<std::uint64_t>(config_.levels));
  fp.add(config_.apps_per_session);
  fp.add(static_cast<std::uint64_t>(config_.tuning.max_iterations));
  fp.add(config_.tuning.target_accuracy);
  fp.add(static_cast<std::uint64_t>(config_.tuning.batch));
  fp.add(config_.tuning.min_grad_fraction);
  fp.add(config_.tuning.step_fraction);
  fp.add(static_cast<std::uint64_t>(config_.tuning.eval_samples));
  fp.add(static_cast<std::uint64_t>(config_.tuning.quantized_eval));
  fp.add(config_.drift.sigma);
  fp.add(config_.drift_seed);
  fp.add(static_cast<std::uint64_t>(config_.selection_eval_samples));
  fp.add(config_.rescue_switch_margin);
  fp.add(static_cast<std::uint64_t>(config_.resilience.ladder_enabled));
  fp.add(config_.resilience.degraded_accuracy_floor);
  fp.add(static_cast<std::uint64_t>(policy_));
  fp.add(static_cast<std::uint64_t>(hw_->layer_count()));
  fp.add(static_cast<std::uint64_t>(hw_->network().parameter_count()));
  return fp.value();
}

void LifetimeState::save(persist::StateWriter& w) const {
  w.u64(next_session);
  w.u64(result.sessions.size());
  for (const SessionRecord& rec : result.sessions) {
    w.u64(rec.session);
    w.u64(rec.applications);
    w.u64(rec.tuning_iterations);
    w.boolean(rec.rescued);
    w.boolean(rec.converged);
    w.f64(rec.start_accuracy);
    w.f64(rec.accuracy);
    w.u64(rec.pulses_total);
    w.u64(rec.layer_mean_aged_rmax.size());
    for (const double v : rec.layer_mean_aged_rmax) {
      w.f64(v);
    }
    w.u64(rec.layer_mean_usable_levels.size());
    for (const double v : rec.layer_mean_usable_levels) {
      w.f64(v);
    }
    w.boolean(rec.resilience_active);
    w.boolean(rec.degraded);
    w.u64(rec.rescue_rungs.size());
    for (const std::string& r : rec.rescue_rungs) {
      w.str(r);
    }
    w.u64(rec.cells_faulty);
    w.u64(rec.cells_clamped);
    w.u64(rec.cells_dead);
  }
  w.u64(result.lifetime_applications);
  w.boolean(result.died);
  persist::write_rng_state(w, drift_rng);
  w.u64(tuner_->cursor());
  hw_->save_state(w);
}

void LifetimeState::load(persist::StateReader& r) {
  next_session = r.u64();
  result.sessions.resize(r.array_count(8));
  for (SessionRecord& rec : result.sessions) {
    rec.session = r.u64();
    rec.applications = r.u64();
    rec.tuning_iterations = r.u64();
    rec.rescued = r.boolean();
    rec.converged = r.boolean();
    rec.start_accuracy = r.f64();
    rec.accuracy = r.f64();
    rec.pulses_total = r.u64();
    rec.layer_mean_aged_rmax.resize(r.array_count(8));
    for (double& v : rec.layer_mean_aged_rmax) {
      v = r.f64();
    }
    rec.layer_mean_usable_levels.resize(r.array_count(8));
    for (double& v : rec.layer_mean_usable_levels) {
      v = r.f64();
    }
    rec.resilience_active = r.boolean();
    rec.degraded = r.boolean();
    rec.rescue_rungs.resize(r.array_count(8));
    for (std::string& rung : rec.rescue_rungs) {
      rung = r.str();
    }
    rec.cells_faulty = r.u64();
    rec.cells_clamped = r.u64();
    rec.cells_dead = r.u64();
  }
  result.lifetime_applications = r.u64();
  result.died = r.boolean();
  persist::read_rng_state(r, drift_rng);
  tuner_->set_cursor(r.u64());
  hw_->load_state(r);
}

LifetimeResult LifetimeSimulator::run(tuning::HardwareNetwork& hw,
                                      const data::Dataset& tune_data,
                                      const data::Dataset& eval_data,
                                      tuning::MappingPolicy policy,
                                      const obs::Obs& obs,
                                      persist::CheckpointStore* store,
                                      AgingAwareRide* ride) {
  tune_data.validate();
  eval_data.validate();
  XB_CHECK(ride == nullptr || store == nullptr,
           "a ride does not checkpoint");
  XB_CHECK(ride == nullptr || policy == tuning::MappingPolicy::kFresh ||
               ride->fork.has_value(),
           "ST+AT resumes only from a forked ride");
  if (obs.metrics_enabled()) {
    hw.attach_metrics(*obs.metrics);
  }
  // Lets the remote executor open its per-sequence remote-execute span
  // (and graft the worker's span tree under it) in profiled runs.
  hw.attach_profiler(obs.profiler);
  tuning::OnlineTuner tuner(config_.tuning);
  LifetimeState st(config_, hw, tuner, policy);

  // ST+AT from a ride's fork: restart that session's rescue from the
  // saved state (a fork at the initial deployment starts from scratch).
  const bool aware = policy == tuning::MappingPolicy::kAgingAware;
  const RescueStart* resume =
      ride != nullptr && aware && ride->fork->start.has_value()
          ? &*ride->fork->start
          : nullptr;
  if (resume != nullptr) {
    persist::StateReader r(resume->state);
    st.load(r);
    XB_CHECK(r.done(), "rescue-start state has trailing bytes");
  }
  bool riding = ride != nullptr && !aware;

  CheckpointLoop loop(st, store, obs);
  const obs::Obs& run_obs = loop.obs();
  LifetimeResult& result = st.result;

  const bool ladder_active =
      config_.resilience.active_for(hw.fault_config());
  const resilience::EscalationLadder ladder(config_.resilience);

  // Evaluator for the aging-aware range selection: accuracy of the network
  // as currently loaded, on a small validation slice.
  const data::Dataset selection_slice =
      eval_data.head(config_.selection_eval_samples);
  nn::Network& net = hw.network();
  const tuning::NetworkEvaluator evaluator = [&]() {
    if (config_.tuning.quantized_eval) {
      // Specs are derived inside the lambda: candidate-range scoring
      // mutates the layer plans between calls.
      return net.evaluate_quantized(selection_slice.images,
                                    selection_slice.labels,
                                    hw.quant_specs());
    }
    return net.evaluate(selection_slice.images, selection_slice.labels);
  };

  // Every policy-dependent deployment. While ST+AT rides along, a fresh
  // deployment also makes the aging-aware choice into `shadow`.
  tuning::AwareShadow shadow;
  const auto redeploy = [&](double keep_threshold, double switch_margin) {
    hw.deploy(policy, config_.levels, aware || riding ? evaluator : nullptr,
              keep_threshold, switch_margin, riding ? &shadow : nullptr);
  };
  // Records the ride's fork once `shadow` differs; true when the ST+T run
  // should end there.
  const auto forked = [&](std::size_t session,
                          std::optional<RescueStart> start) {
    if (!riding || !shadow.differs) {
      return false;
    }
    ride->fork = AgingAwareRide::Fork{session, shadow, std::move(start)};
    riding = false;
    return ride->stop_at_fork;
  };

  // Initial hardware mapping (Fig. 5). On a fresh array the aging-aware
  // selection degenerates to the fresh range, so both policies start
  // identically. A restored snapshot (or a fork's copy) already holds
  // the deployed (and aged) state, so redeploying would wipe it.
  bool stop = false;
  if (!loop.restored().has_value() && resume == nullptr) {
    redeploy(/*keep_threshold=*/2.0, /*switch_margin=*/0.05);
    stop = forked(0, std::nullopt);
  }

  obs.progress_phase("lifetime.sessions", st.next_session,
                     config_.max_sessions);
  // Phase spans inside a session are profiler-only, like tuning's: the
  // event stream and the checkpointed trace lines keep their shape.
  obs::Obs phases;
  phases.profiler = run_obs.profiler;
  for (std::size_t session = st.next_session;
       session < config_.max_sessions && !result.died && !stop; ++session) {
    check_job_deadline();
    // The session span closes before the commit below, so the persisted
    // stream holds the complete begin/end pair.
    std::optional<obs::Span> session_span;
    session_span.emplace(run_obs, "lifetime.session");
    SessionRecord rec;
    tuning::TuningResult tr;
    if (resume != nullptr) {
      // ST+AT's first session after a fork starts at the rescue.
      rec = resume->rec;
      tr = resume->tuned;
      resume = nullptr;
    } else {
      run_obs.count("lifetime.sessions");
      if (run_obs.trace_enabled()) {
        run_obs.event("session_start",
                      {{"session", session},
                       {"applications", result.lifetime_applications},
                       {"pulses_total", hw.total_pulses()}});
      }
      // Recoverable drift accumulated while processing the previous chunk
      // of applications; online tuning is the routine corrector.
      if (session > 0) {
        const obs::Span span(phases, "lifetime.drift");
        apply_drift(hw, st.drift_rng);
      }
      tr = tuner.tune(hw, tune_data, eval_data, run_obs);
      rec.session = session;
      rec.tuning_iterations = tr.iterations;
      rec.start_accuracy = tr.start_accuracy;
    }

    if (!tr.converged) {
      std::optional<RescueStart> start;
      if (riding) {
        persist::StateWriter w;
        st.save(w);
        start = RescueStart{w.release(), rec, tr};
      }
      // Rescue: remap under the scenario policy and retry once. The
      // fresh-range policies rewrite toward the same unreachable targets;
      // the aging-aware policy re-selects the common range (Fig. 8).
      rec.rescued = true;
      run_obs.count("lifetime.rescues");
      if (run_obs.trace_enabled()) {
        run_obs.event("rescue", {{"session", session},
                                 {"accuracy", tr.final_accuracy},
                                 {"iterations", tr.iterations}});
      }
      if (ladder_active) {
        // Faulty arrays walk the bounded escalation ladder instead of the
        // single-shot remap: retry -> remap -> fault masking -> spare
        // rows -> degraded mode (see resilience/escalation.hpp).
        const resilience::RescueContext ctx{
            hw,
            tuner,
            tune_data,
            eval_data,
            policy,
            config_.levels,
            evaluator,
            /*keep_threshold=*/config_.tuning.target_accuracy,
            config_.rescue_switch_margin,
            riding ? &shadow : nullptr};
        const resilience::RescueOutcome ro =
            ladder.rescue(ctx, session, tr.final_accuracy, run_obs);
        rec.tuning_iterations += ro.iterations;
        rec.rescue_rungs = ro.rungs;
        rec.degraded = ro.degraded;
        tr.converged = ro.converged;
        tr.final_accuracy = ro.accuracy;
      } else {
        redeploy(/*keep_threshold=*/config_.tuning.target_accuracy,
                 config_.rescue_switch_margin);
        tr = tuner.tune(hw, tune_data, eval_data, run_obs);
        rec.tuning_iterations += tr.iterations;
      }
      if (forked(session, std::move(start))) {
        break;
      }
    }

    rec.converged = tr.converged;
    rec.accuracy = tr.final_accuracy;
    rec.pulses_total = hw.total_pulses();
    {
      const obs::Span span(phases, "lifetime.aging_stats");
      for (const xbar::CrossbarAgingStats& stats : hw.aging_stats()) {
        rec.layer_mean_aged_rmax.push_back(stats.mean_aged_r_max);
        rec.layer_mean_usable_levels.push_back(stats.mean_usable_levels);
      }
    }
    if (ladder_active) {
      rec.resilience_active = true;
      const resilience::FaultCensus c = resilience::census(hw);
      rec.cells_faulty = c.manufacture;
      rec.cells_clamped = c.clamped;
      rec.cells_dead = c.dead;
    }

    if (tr.converged || rec.degraded) {
      // Degraded sessions keep serving applications (below target, above
      // the accuracy floor) — graceful degradation instead of EOL.
      result.lifetime_applications += config_.apps_per_session;
      run_obs.count("lifetime.applications", config_.apps_per_session);
      if (rec.degraded) {
        run_obs.count("lifetime.degraded_sessions");
      }
    } else {
      // Even the rescue ladder failed: end-of-life; these applications
      // were not processed successfully.
      result.died = true;
    }
    rec.applications = result.lifetime_applications;
    result.sessions.push_back(rec);
    if (run_obs.trace_enabled()) {
      std::vector<obs::Field> fields{
          {"session", rec.session},
          {"applications", rec.applications},
          {"tuning_iterations", rec.tuning_iterations},
          {"rescued", rec.rescued},
          {"converged", rec.converged},
          {"start_accuracy", rec.start_accuracy},
          {"accuracy", rec.accuracy},
          {"pulses_total", rec.pulses_total}};
      if (rec.resilience_active) {
        fields.emplace_back("degraded", rec.degraded);
        fields.emplace_back("cells_clamped", rec.cells_clamped);
        fields.emplace_back("cells_dead", rec.cells_dead);
      }
      run_obs.event("session_end", fields);
    }
    if (result.died && run_obs.trace_enabled()) {
      run_obs.event(
          "eol",
          {{"session", session},
           {"lifetime_applications", result.lifetime_applications},
           {"pulses_total", rec.pulses_total}});
    }
    session_span.reset();
    obs.progress_tick();

    st.next_session = session + 1;
    loop.commit(!result.died && session + 1 < config_.max_sessions,
                "lifetime simulation interrupted after session " +
                    std::to_string(session));
  }
  obs.set_gauge("lifetime.applications_final",
                static_cast<double>(result.lifetime_applications));
  if (riding) {
    ride->unforked = result;
  }

  loop.replay();
  return result;
}

}  // namespace xbarlife::core
