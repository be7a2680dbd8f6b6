// Shared reporting: one set of converters from experiment outcomes to
// human-readable tables and to the versioned machine-readable result
// document (schema "xbarlife.result.v1", described in
// docs/output_schema.md).
//
// The CLI's commands, the benches, and the examples render through these
// helpers instead of copy-pasting TablePrinter blocks, so the console
// table and the --json document can never drift apart.
#pragma once

#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "core/scenario_runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"

namespace xbarlife::core {

/// Version tag stamped into every result document's "schema" field.
inline constexpr std::string_view kResultSchema = "xbarlife.result.v1";

/// Wraps command-specific `data` into the versioned result document:
///   {"schema":..., "command":..., "data":..., "metrics":...}
/// `metrics` may be null (the "metrics" key then holds an empty
/// snapshot-shaped object). A non-null `profiler` appends the optional
/// trailing "profile" key (the span-aggregate rollup of
/// Profiler::report_json); consumers must treat it as optional.
obs::JsonValue result_document(std::string_view command, obs::JsonValue data,
                               const obs::Registry* metrics,
                               const obs::Profiler* profiler = nullptr);

/// Per-phase span-aggregate table (name, calls, total/self ms, counters)
/// — the human-readable rendering of the "profile" result-document key.
std::string profile_table(const obs::Profiler& profiler);

/// Summary of the config knobs that identify a run.
obs::JsonValue experiment_config_json(const ExperimentConfig& config);

obs::JsonValue epoch_stats_json(const EpochStats& e);
obs::JsonValue train_history_json(const TrainHistory& history);
std::string train_history_table(const TrainHistory& history);

obs::JsonValue session_record_json(const SessionRecord& rec);
obs::JsonValue lifetime_result_json(const LifetimeResult& result);
obs::JsonValue scenario_outcome_json(const ScenarioOutcome& outcome);
/// Session log table; `max_rows` > 0 subsamples long logs (the last
/// session is always shown).
std::string lifetime_session_table(const LifetimeResult& result,
                                   std::size_t max_rows = 0);

/// One sweep job's result-document entry. `with_wall_ms` appends the
/// job's wall-clock time; checkpoint-mode documents leave it out, so a
/// killed-and-resumed run's document is byte-identical to an
/// uninterrupted one.
obs::JsonValue sweep_entry_json(const ScenarioSweepEntry& entry,
                                bool with_wall_ms);

/// Persist meta trace lines. These are spliced into the trace verbatim
/// (no seq, no t_ms) so checkpoint I/O never shifts the deterministic
/// seq numbering of real events; consumers comparing resumed against
/// uninterrupted traces must strip them along with t_ms (see
/// docs/output_schema.md). No-ops when the trace sink is absent.
void emit_checkpoint_saved(const obs::Obs& obs, std::string_view kind,
                           std::uint64_t generation);
void emit_resume_event(const obs::Obs& obs, std::string_view kind,
                       std::uint64_t generation, bool fallback_used);

}  // namespace xbarlife::core
