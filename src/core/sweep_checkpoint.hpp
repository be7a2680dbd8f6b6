// The one grid engine: every job grid (the sweep command, the fault
// campaign, ScenarioRunner::run) fans out and back in through run_sweep,
// whose checkpoint is optional.
//
// Without a checkpoint path, every job runs in one pass and the fan-in
// goes through ObsFork::merge_into: job traces, registries and span
// profiles merge in job order, and each job closes with its
// sweep_job_done event (wall_ms included) and a sweep.job_ms sample.
//
// With a path, jobs run in fixed-size chunks; after each chunk the engine
// atomically rewrites an "xbarlife.ckpt.v1" snapshot (see
// persist/checkpoint.hpp) holding every completed job's serialized
// result-document entry, its deterministic summary scalars, and its
// buffered trace lines. A resumed run restores the completed jobs,
// executes only the pending ones, and fans everything in strictly in
// global job order — so the result document and the event stream (t_ms
// and the seq-less persist meta lines aside) are byte-identical whether
// the run was killed zero or many times, at any thread count. The
// snapshot's fingerprint covers every job's forked config, so a snapshot
// from another grid, model, fault point or session cap fails closed.
//
// A cooperative shutdown (SIGINT/SIGTERM via common/shutdown.hpp) is
// honored at chunk boundaries: the previous chunk's snapshot is already
// on disk, so the engine raises InterruptedError (CLI exit 6) without
// losing completed work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/scenario_runner.hpp"
#include "obs/json.hpp"

namespace xbarlife::core {

/// Jobs per snapshot chunk unless the caller picks another cadence.
inline constexpr std::size_t kDefaultSweepChunk = 16;

struct SweepConfig {
  /// Snapshot path; empty runs every job in one pass, unpersisted.
  std::string checkpoint_path;
  /// Grid kind ("sweep", "faults"): names the "<kind>.jobs" progress
  /// phase and is part of the fingerprint, so the two grids can never
  /// resume each other's files.
  std::string kind = "sweep";
  /// Jobs per chunk (the save cadence) when checkpointing. The chunk
  /// size — NOT the pool size — fixes batch composition, so it must be a
  /// constant for a given grid.
  std::size_t chunk = kDefaultSweepChunk;
};

/// One job's row: the serialized result-document entry plus the
/// deterministic scalars the table and the sweep_job_done events are
/// built from. Checkpointed rows are persisted whole (wall_ms aside).
struct SweepJobResult {
  std::string label;
  std::string entry_json;  ///< the serializer's output
  bool resumed = false;    ///< restored from the snapshot
  Scenario scenario = Scenario::kTT;
  std::uint64_t stream = 0;
  std::uint64_t seed = 0;
  double software_accuracy = 0.0;
  double tuning_target = 0.0;
  std::uint64_t lifetime_applications = 0;
  std::uint64_t sessions = 0;
  bool died = false;
  bool failed = false;
  bool timed_out = false;
  std::string error;
  /// Job wall-clock; never persisted (0 on restored jobs).
  double wall_ms = 0.0;
  /// Checkpoint mode only: the job's buffered trace lines, persisted so
  /// a resumed run replays the complete stream.
  std::vector<std::string> trace_lines;
};

struct SweepOutcome {
  std::uint64_t sweep_seed = 0;      ///< the runner's root seed
  std::vector<SweepJobResult> jobs;  ///< index-aligned with the input
  std::size_t resumed_jobs = 0;
  std::size_t executed_jobs = 0;
  std::size_t failed_jobs = 0;     ///< includes timed-out jobs
  std::size_t timed_out_jobs = 0;
  std::uint64_t checkpoint_generation = 0;
  bool fallback_used = false;  ///< restored from the .bak generation
  bool resumed = false;        ///< any snapshot was restored
};

/// Turns one finished job (global job index, entry) into its row's
/// entry_json. With a checkpoint it must be deterministic (no wall-clock
/// fields) and non-empty: it is what a resumed run splices back.
using EntrySerializer =
    std::function<std::string(std::size_t, ScenarioSweepEntry)>;

/// Runs (or, with a checkpoint, resumes) `jobs` through `runner`.
/// Throws IoError when the snapshot belongs to a different grid,
/// CheckpointError when every snapshot generation is corrupt, and
/// InterruptedError when a cooperative shutdown left jobs pending.
SweepOutcome run_sweep(const ScenarioRunner& runner,
                       const std::vector<ScenarioJob>& jobs,
                       const SweepConfig& config,
                       const EntrySerializer& serialize_entry,
                       const obs::Obs& obs = {});

/// The rows' entry JSON, spliced verbatim into one array.
obs::JsonValue entries_json(const SweepOutcome& out);

/// Console summary, one row per job.
std::string sweep_table(const SweepOutcome& out);

}  // namespace xbarlife::core
