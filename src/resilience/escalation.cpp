#include "resilience/escalation.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "xbar/executor.hpp"

namespace xbarlife::resilience {

const char* to_string(Rung rung) {
  switch (rung) {
    case Rung::kFallbackExecutor:
      return "fallback_executor";
    case Rung::kRetry:
      return "retry";
    case Rung::kRemap:
      return "remap";
    case Rung::kFaultMask:
      return "fault_mask";
    case Rung::kSpareRows:
      return "spare_rows";
    case Rung::kDegraded:
      return "degraded";
  }
  return "unknown";
}

EscalationLadder::EscalationLadder(ResilienceConfig config)
    : config_(config) {
  config_.validate();
}

namespace {

/// Applies fault-masking permutations to every layer that has a better
/// assignment available; returns whether any layer was remapped.
bool apply_masking(const RescueContext& ctx, bool use_spares) {
  bool changed = false;
  for (std::size_t i = 0; i < ctx.hw.layer_count(); ++i) {
    std::vector<std::size_t> perm =
        fault_masking_permutation(ctx.hw, i, use_spares);
    if (perm.empty()) {
      continue;
    }
    ctx.hw.set_row_permutation(i, std::move(perm));
    ctx.hw.reprogram_targets(i);
    changed = true;
  }
  if (changed) {
    ctx.hw.sync_network_to_hardware();
  }
  return changed;
}

}  // namespace

RescueOutcome EscalationLadder::rescue(const RescueContext& ctx,
                                       std::size_t session, double accuracy,
                                       const obs::Obs& obs) const {
  RescueOutcome out;
  out.accuracy = accuracy;

  // Runs `prepare` (which mutates the array) and retunes; returns true
  // when the rung restored the tuning target. `prepare` returning false
  // means the rung has nothing to do and is skipped without a tune.
  const auto attempt = [&](Rung rung, const auto& prepare) {
    check_job_deadline();
    if (!prepare()) {
      return false;
    }
    const char* name = to_string(rung);
    out.rungs.emplace_back(name);
    const obs::Span rung_span(obs,
                              std::string("resilience.rung.") + name);
    obs.count(std::string("resilience.rung.") + name);
    const tuning::TuningResult tr =
        ctx.tuner.tune(ctx.hw, ctx.tune_data, ctx.eval_data, obs);
    out.iterations += tr.iterations;
    out.accuracy = tr.final_accuracy;
    if (obs.trace_enabled()) {
      obs.event("resilience_rung", {{"session", session},
                                    {"rung", name},
                                    {"converged", tr.converged},
                                    {"accuracy", tr.final_accuracy},
                                    {"iterations", tr.iterations}});
    }
    return tr.converged;
  };

  // Rung 0: when the network's executor is running degraded (the remote
  // backend fell back mid-session), pin execution to its local fallback
  // path and retune once with the link failure out of the picture — the
  // cheapest possible rescue, since nothing about the array changes. The
  // pin is permanent and pin_local_fallback() returns true only on the
  // transition, so later rescues skip this rung entirely.
  const xbar::ProgramExecutor& executor = ctx.hw.executor();
  if (executor.degraded() &&
      attempt(Rung::kFallbackExecutor, [&] {
        if (!executor.pin_local_fallback()) {
          return false;
        }
        // Reprogram every layer so any sequence lost to the dying link
        // is re-applied through the now-local executor.
        for (std::size_t i = 0; i < ctx.hw.layer_count(); ++i) {
          ctx.hw.reprogram_targets(i);
        }
        ctx.hw.sync_network_to_hardware();
        return true;
      })) {
    out.converged = true;
    return out;
  }

  // Rung 1: write-verify retry of clamped cells. Each pass gives every
  // clamped (not dead) cell one more chance against its current target.
  for (std::size_t pass = 0; pass < config_.retry_passes; ++pass) {
    if (census(ctx.hw).clamped == 0) {
      break;
    }
    if (attempt(Rung::kRetry, [&] {
          for (std::size_t i = 0; i < ctx.hw.layer_count(); ++i) {
            ctx.hw.retry_clamped_cells(i);
          }
          ctx.hw.sync_network_to_hardware();
          return true;
        })) {
      out.converged = true;
      return out;
    }
  }

  // Rung 2: the legacy rescue — redeploy under the scenario policy (the
  // aging-aware path re-selects the common range, Fig. 8).
  if (attempt(Rung::kRemap, [&] {
        ctx.hw.deploy(ctx.policy, ctx.levels,
                      ctx.policy == tuning::MappingPolicy::kAgingAware
                          ? ctx.evaluator
                          : nullptr,
                      ctx.keep_threshold, ctx.switch_margin);
        return true;
      })) {
    out.converged = true;
    return out;
  }

  // Rung 3: fault masking within the rows already in use.
  if (config_.fault_masking &&
      attempt(Rung::kFaultMask,
              [&] { return apply_masking(ctx, /*use_spares=*/false); })) {
    out.converged = true;
    return out;
  }

  // Rung 4: draft unused spare rows for the worst physical rows.
  if (config_.spare_row_redundancy &&
      ctx.hw.fault_config().spare_rows > 0 &&
      attempt(Rung::kSpareRows,
              [&] { return apply_masking(ctx, /*use_spares=*/true); })) {
    out.converged = true;
    return out;
  }

  // Rung 5: degraded mode — keep serving while accuracy holds the floor.
  if (config_.degraded_accuracy_floor < 1.0 &&
      out.accuracy >= config_.degraded_accuracy_floor) {
    out.degraded = true;
    const char* name = to_string(Rung::kDegraded);
    out.rungs.emplace_back(name);
    const obs::Span rung_span(obs,
                              std::string("resilience.rung.") + name);
    obs.count(std::string("resilience.rung.") + name);
    if (obs.trace_enabled()) {
      obs.event("resilience_rung", {{"session", session},
                                    {"rung", name},
                                    {"converged", false},
                                    {"accuracy", out.accuracy}});
    }
  }
  return out;
}

}  // namespace xbarlife::resilience
