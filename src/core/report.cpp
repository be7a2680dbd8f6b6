#include "core/report.hpp"

#include <algorithm>

#include "common/table.hpp"
#include "tensor/kernels/kernels.hpp"
#include "xbar/executor.hpp"

namespace xbarlife::core {

obs::JsonValue result_document(std::string_view command,
                               obs::JsonValue data,
                               const obs::Registry* metrics,
                               const obs::Profiler* profiler) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", kResultSchema);
  doc.set("command", command);
  doc.set("kernel", kernels::kernel_name());
  doc.set("executor", xbar::executor_name());
  // "executor_pool" is an optional key directly after "executor": it
  // appears exactly when the active backend is the remote one (a single
  // address is a pool of one), so in-process documents stay
  // byte-identical to earlier builds.
  const xbar::ExecutorPoolSummary pool = xbar::executor_pool_summary();
  if (pool.active) {
    obs::JsonValue endpoints = obs::JsonValue::array();
    for (const xbar::PoolEndpointSummary& ep : pool.endpoints) {
      obs::JsonValue entry = obs::JsonValue::object();
      entry.set("address", ep.address);
      entry.set("circuit", ep.circuit);
      entry.set("requests", ep.requests);
      entry.set("failovers", ep.failovers);
      entry.set("circuit_opens", ep.circuit_opens);
      endpoints.push_back(std::move(entry));
    }
    obs::JsonValue pool_doc = obs::JsonValue::object();
    pool_doc.set("endpoints", std::move(endpoints));
    doc.set("executor_pool", std::move(pool_doc));
  }
  // "executor_degradation" is an optional key after "executor" (following
  // "executor_pool" when both are present):
  // it appears only when the remote backend fell back to local execution
  // during the run, so documents from clean runs stay byte-identical to
  // the sim goldens (modulo the executor stamp).
  const xbar::ExecutorDegradation degradation = xbar::executor_degradation();
  if (degradation.degraded) {
    obs::JsonValue deg = obs::JsonValue::object();
    deg.set("fallback_executor", "sim");
    deg.set("fallbacks", degradation.fallbacks);
    deg.set("retries", degradation.retries);
    deg.set("reconnects", degradation.reconnects);
    doc.set("executor_degradation", std::move(deg));
  }
  doc.set("data", std::move(data));
  doc.set("metrics", metrics != nullptr ? metrics->to_json()
                                        : obs::Registry().to_json());
  // "profile" is an optional trailing key: documents from unprofiled runs
  // stay byte-identical to pre-profiler builds (pinned by the goldens).
  if (profiler != nullptr) {
    doc.set("profile", profiler->report_json());
  }
  return doc;
}

std::string profile_table(const obs::Profiler& profiler) {
  TablePrinter table({"span", "calls", "total ms", "self ms", "counters"});
  for (const obs::Profiler::Rollup& agg : profiler.rollup()) {
    std::string counters;
    for (const auto& [key, value] : agg.counters) {
      if (!counters.empty()) {
        counters += ", ";
      }
      counters += key + "=" + std::to_string(value);
    }
    table.add_row({agg.name, std::to_string(agg.count),
                   format_double(agg.total_ms, 2),
                   format_double(agg.self_ms, 2), counters});
  }
  return table.render();
}

obs::JsonValue experiment_config_json(const ExperimentConfig& config) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("name", config.name);
  switch (config.model) {
    case ExperimentConfig::Model::kMlp:
      out.set("model", "mlp");
      break;
    case ExperimentConfig::Model::kLeNet5:
      out.set("model", "lenet5");
      break;
    case ExperimentConfig::Model::kVgg16:
      out.set("model", "vgg16");
      break;
  }
  out.set("seed", config.seed);
  out.set("classes", config.dataset.classes);
  out.set("epochs", config.train_config.epochs);
  out.set("levels", config.lifetime.levels);
  out.set("apps_per_session", config.lifetime.apps_per_session);
  out.set("max_sessions", config.lifetime.max_sessions);
  return out;
}

obs::JsonValue epoch_stats_json(const EpochStats& e) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("epoch", e.epoch);
  out.set("loss", e.loss);
  out.set("penalty", e.penalty);
  out.set("train_accuracy", e.train_accuracy);
  out.set("test_accuracy", e.test_accuracy);
  return out;
}

obs::JsonValue train_history_json(const TrainHistory& history) {
  obs::JsonValue epochs = obs::JsonValue::array();
  for (const EpochStats& e : history.epochs) {
    epochs.push_back(epoch_stats_json(e));
  }
  obs::JsonValue out = obs::JsonValue::object();
  out.set("epochs", std::move(epochs));
  out.set("final_test_accuracy", history.final_test_accuracy);
  return out;
}

std::string train_history_table(const TrainHistory& history) {
  TablePrinter table({"epoch", "loss", "train acc", "test acc"});
  for (const EpochStats& e : history.epochs) {
    table.add_row({std::to_string(e.epoch), format_double(e.loss, 4),
                   format_double(e.train_accuracy, 3),
                   format_double(e.test_accuracy, 3)});
  }
  return table.render();
}

obs::JsonValue session_record_json(const SessionRecord& rec) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("session", rec.session);
  out.set("applications", rec.applications);
  out.set("tuning_iterations", rec.tuning_iterations);
  out.set("rescued", rec.rescued);
  out.set("converged", rec.converged);
  out.set("start_accuracy", rec.start_accuracy);
  out.set("accuracy", rec.accuracy);
  out.set("pulses_total", rec.pulses_total);
  obs::JsonValue rmax = obs::JsonValue::array();
  for (const double v : rec.layer_mean_aged_rmax) {
    rmax.push_back(v);
  }
  out.set("layer_mean_aged_rmax", std::move(rmax));
  obs::JsonValue levels = obs::JsonValue::array();
  for (const double v : rec.layer_mean_usable_levels) {
    levels.push_back(v);
  }
  out.set("layer_mean_usable_levels", std::move(levels));
  // Resilience fields are emitted only when the escalation ladder governs
  // this run, so fault-free documents stay byte-identical to pre-ladder
  // builds (pinned by the golden tests).
  if (rec.resilience_active) {
    out.set("degraded", rec.degraded);
    obs::JsonValue rungs = obs::JsonValue::array();
    for (const std::string& r : rec.rescue_rungs) {
      rungs.push_back(r);
    }
    out.set("rescue_rungs", std::move(rungs));
    out.set("cells_faulty", rec.cells_faulty);
    out.set("cells_clamped", rec.cells_clamped);
    out.set("cells_dead", rec.cells_dead);
  }
  return out;
}

obs::JsonValue lifetime_result_json(const LifetimeResult& result) {
  obs::JsonValue sessions = obs::JsonValue::array();
  for (const SessionRecord& rec : result.sessions) {
    sessions.push_back(session_record_json(rec));
  }
  obs::JsonValue out = obs::JsonValue::object();
  out.set("lifetime_applications", result.lifetime_applications);
  out.set("died", result.died);
  out.set("session_count", result.sessions.size());
  out.set("sessions", std::move(sessions));
  return out;
}

obs::JsonValue scenario_outcome_json(const ScenarioOutcome& outcome) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("scenario", to_string(outcome.scenario));
  out.set("software_accuracy", outcome.software_accuracy);
  out.set("tuning_target", outcome.tuning_target);
  out.set("lifetime", lifetime_result_json(outcome.lifetime));
  return out;
}

namespace {

void add_session_row(TablePrinter& table, const SessionRecord& r) {
  table.add_row({std::to_string(r.session), std::to_string(r.applications),
                 std::to_string(r.tuning_iterations),
                 r.rescued ? "yes" : "no",
                 format_double(r.start_accuracy, 3),
                 format_double(r.accuracy, 3),
                 std::to_string(r.pulses_total)});
}

}  // namespace

std::string lifetime_session_table(const LifetimeResult& result,
                                   std::size_t max_rows) {
  TablePrinter table({"session", "apps (cum)", "iters", "rescued",
                      "start acc", "acc", "pulses"});
  const auto& sessions = result.sessions;
  const std::size_t stride =
      max_rows > 0 ? std::max<std::size_t>(1, sessions.size() / max_rows)
                   : 1;
  for (std::size_t i = 0; i < sessions.size(); i += stride) {
    add_session_row(table, sessions[i]);
  }
  if (stride > 1 && !sessions.empty() &&
      (sessions.size() - 1) % stride != 0) {
    add_session_row(table, sessions.back());
  }
  return table.render();
}

obs::JsonValue sweep_entry_json(const ScenarioSweepEntry& entry,
                                bool with_wall_ms) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("label", entry.label);
  out.set("scenario", to_string(entry.scenario));
  out.set("stream", entry.stream);
  out.set("seed", entry.seed);
  out.set("data_seed", entry.data_seed);
  out.set("drift_seed", entry.drift_seed);
  if (entry.failed) {
    // Failed jobs keep their identity fields and gain an error record;
    // the outcome fields would be meaningless defaults. timed_out marks
    // jobs killed by the --job-timeout watchdog (a failure subtype).
    out.set("failed", true);
    if (entry.timed_out) {
      out.set("timed_out", true);
    }
    out.set("error", entry.error);
    return out;
  }
  out.set("software_accuracy", entry.outcome.software_accuracy);
  out.set("tuning_target", entry.outcome.tuning_target);
  out.set("lifetime_applications",
          entry.outcome.lifetime.lifetime_applications);
  out.set("sessions", entry.outcome.lifetime.sessions.size());
  out.set("died", entry.outcome.lifetime.died);
  if (with_wall_ms) {
    out.set("wall_ms", entry.wall_ms);
  }
  return out;
}

}  // namespace xbarlife::core
