#include "core/lifetime.hpp"

#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/shutdown.hpp"
#include "core/report.hpp"
#include "obs/event_trace.hpp"
#include "obs/sink.hpp"
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

std::string LifetimeSimulator::kind() const { return "lifetime"; }

std::uint64_t LifetimeSimulator::fingerprint() const {
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
  fp.add(static_cast<std::uint64_t>(config_.tuning.plateau_iterations));
  fp.add(static_cast<std::uint64_t>(config_.tuning.quantized_eval));
  fp.add(config_.drift.sigma);
  fp.add(config_.drift_seed);
  fp.add(static_cast<std::uint64_t>(config_.selection_eval_samples));
  fp.add(config_.rescue_switch_margin);
  fp.add(static_cast<std::uint64_t>(config_.resilience.enabled));
  fp.add(static_cast<std::uint64_t>(config_.resilience.ladder_enabled));
  fp.add(static_cast<std::uint64_t>(config_.resilience.retry_passes));
  fp.add(static_cast<std::uint64_t>(config_.resilience.fault_masking));
  fp.add(
      static_cast<std::uint64_t>(config_.resilience.spare_row_redundancy));
  fp.add(config_.resilience.degraded_accuracy_floor);
  fp.add(static_cast<std::uint64_t>(policy_));
  if (hw_ != nullptr) {
    fp.add(static_cast<std::uint64_t>(hw_->layer_count()));
    fp.add(static_cast<std::uint64_t>(hw_->network().parameter_count()));
  }
  return fp.value();
}

std::string LifetimeSimulator::serialize() const {
  persist::StateWriter w;
  w.u64(next_session_);
  w.u64(result_.sessions.size());
  for (const SessionRecord& rec : result_.sessions) {
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
  w.u64(result_.lifetime_applications);
  w.boolean(result_.died);
  persist::write_rng_state(w, drift_rng_);
  w.u64(tuner_ != nullptr ? tuner_->cursor() : 0);
  hw_->save_state(w);
  w.u64(trace_seq_);
  w.u64(trace_lines_.size());
  for (const std::string& line : trace_lines_) {
    w.str(line);
  }
  return w.data();
}

void LifetimeSimulator::restore(std::string_view payload) {
  persist::StateReader r(payload);
  next_session_ = r.u64();
  result_.sessions.resize(r.array_count(8));
  for (SessionRecord& rec : result_.sessions) {
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
  result_.lifetime_applications = r.u64();
  result_.died = r.boolean();
  persist::read_rng_state(r, drift_rng_);
  const std::size_t cursor = r.u64();
  if (tuner_ != nullptr) {
    tuner_->set_cursor(cursor);
  }
  hw_->load_state(r);
  trace_seq_ = r.u64();
  trace_lines_.resize(r.array_count(8));
  for (std::string& line : trace_lines_) {
    line = r.str();
  }
  XB_CHECK(r.done(), "lifetime snapshot has trailing bytes");
  restored_ = true;
}

LifetimeResult LifetimeSimulator::run(tuning::HardwareNetwork& hw,
                                      const data::Dataset& tune_data,
                                      const data::Dataset& eval_data,
                                      tuning::MappingPolicy policy,
                                      const obs::Obs& obs,
                                      persist::CheckpointStore* store) {
  tune_data.validate();
  eval_data.validate();
  if (obs.metrics_enabled()) {
    hw.attach_metrics(*obs.metrics);
  }
  // Lets the remote executor open its per-sequence remote-execute span
  // (and graft the worker's span tree under it) in profiled runs.
  hw.attach_profiler(obs.profiler);
  tuning::OnlineTuner tuner(config_.tuning);
  hw_ = &hw;
  tuner_ = &tuner;
  policy_ = policy;
  drift_rng_ = Rng(config_.drift_seed);
  result_ = {};
  next_session_ = 0;
  restored_ = false;
  trace_lines_.clear();
  trace_seq_ = 0;

  if (store != nullptr) {
    const auto info = store->load(*this);
    if (info.has_value()) {
      emit_resume_event(obs, "lifetime", info->generation,
                        info->fallback_used);
    }
  }

  // In checkpoint mode events are buffered per session and persisted with
  // the snapshot, so a resumed run replays the complete stream; the child
  // trace continues the stored seq numbering.
  obs::Obs run_obs = obs;
  obs::MemorySink buffer;
  std::unique_ptr<obs::EventTrace> child;
  if (store != nullptr && obs.trace_enabled()) {
    child = std::make_unique<obs::EventTrace>(&buffer);
    child->set_next_seq(trace_seq_);
    run_obs.trace = child.get();
  }

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

  // Initial hardware mapping (Fig. 5). On a fresh array the aging-aware
  // selection degenerates to the fresh range, so both policies start
  // identically. A restored snapshot already holds the deployed (and
  // aged) state, so redeploying would wipe it.
  if (!restored_) {
    hw.deploy(policy, config_.levels,
              policy == tuning::MappingPolicy::kAgingAware ? evaluator
                                                           : nullptr);
  }

  obs.progress_phase("lifetime.sessions", next_session_,
                     config_.max_sessions);
  // Phase spans inside a session are profiler-only, like tuning's: the
  // event stream and the checkpointed trace lines keep their shape.
  obs::Obs phases;
  phases.profiler = run_obs.profiler;
  for (std::size_t session = next_session_;
       session < config_.max_sessions && !result_.died; ++session) {
    check_job_deadline();
    // The session span closes before the snapshot drain below, so the
    // persisted stream holds the complete begin/end pair.
    std::optional<obs::Span> session_span;
    session_span.emplace(run_obs, "lifetime.session");
    run_obs.count("lifetime.sessions");
    if (run_obs.trace_enabled()) {
      run_obs.event("session_start",
                    {{"session", session},
                     {"applications", result_.lifetime_applications},
                     {"pulses_total", hw.total_pulses()}});
    }
    // Recoverable drift accumulated while processing the previous chunk
    // of applications; online tuning is the routine corrector.
    if (session > 0) {
      const obs::Span span(phases, "lifetime.drift");
      apply_drift(hw, drift_rng_);
    }
    tuning::TuningResult tr =
        tuner.tune(hw, tune_data, eval_data, run_obs);

    SessionRecord rec;
    rec.session = session;
    rec.tuning_iterations = tr.iterations;
    rec.start_accuracy = tr.start_accuracy;

    if (!tr.converged) {
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
            config_.rescue_switch_margin};
        const resilience::RescueOutcome ro =
            ladder.rescue(ctx, session, tr.final_accuracy, run_obs);
        rec.tuning_iterations += ro.iterations;
        rec.rescue_rungs = ro.rungs;
        rec.degraded = ro.degraded;
        tr.converged = ro.converged;
        tr.final_accuracy = ro.accuracy;
      } else {
        hw.deploy(policy, config_.levels,
                  policy == tuning::MappingPolicy::kAgingAware ? evaluator
                                                               : nullptr,
                  /*keep_threshold=*/config_.tuning.target_accuracy,
                  config_.rescue_switch_margin);
        tr = tuner.tune(hw, tune_data, eval_data, run_obs);
        rec.tuning_iterations += tr.iterations;
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
      result_.lifetime_applications += config_.apps_per_session;
      run_obs.count("lifetime.applications", config_.apps_per_session);
      if (rec.degraded) {
        run_obs.count("lifetime.degraded_sessions");
      }
    } else {
      // Even the rescue ladder failed: end-of-life; these applications
      // were not processed successfully.
      result_.died = true;
    }
    rec.applications = result_.lifetime_applications;
    result_.sessions.push_back(rec);
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
    if (result_.died && run_obs.trace_enabled()) {
      run_obs.event(
          "eol",
          {{"session", session},
           {"lifetime_applications", result_.lifetime_applications},
           {"pulses_total", rec.pulses_total}});
    }
    session_span.reset();
    obs.progress_tick();

    if (store != nullptr) {
      if (child != nullptr) {
        for (const std::string& line : buffer.lines()) {
          trace_lines_.push_back(line);
        }
        buffer.clear();
        trace_seq_ = child->events_emitted();
      }
      next_session_ = session + 1;
      store->save(*this);
      emit_checkpoint_saved(obs, "lifetime", store->generation());
      if (shutdown_requested() && !result_.died &&
          session + 1 < config_.max_sessions) {
        throw InterruptedError(
            "lifetime simulation interrupted after session " +
            std::to_string(session) +
            "; resume with the same checkpoint: " + store->path());
      }
    }
  }
  obs.set_gauge("lifetime.applications_final",
                static_cast<double>(result_.lifetime_applications));

  // Replay the buffered (restored + fresh) stream into the real trace.
  if (store != nullptr && obs.trace_enabled()) {
    for (const std::string& line : trace_lines_) {
      obs.trace->emit_line(line);
    }
  }
  hw_ = nullptr;
  tuner_ = nullptr;
  return result_;
}

}  // namespace xbarlife::core
