// Deterministic fault-injection campaign engine.
//
// A campaign sweeps hardware-fault points (stuck-at rates, noise levels,
// spare-row budgets, ladder on/off) across lifetime scenarios and
// replicates, reusing ScenarioRunner's forked-seed fan-out so the whole
// grid is pinned by one campaign seed — byte-identical at any thread
// count. The grid runs through the one grid engine
// (core/sweep_checkpoint.hpp): per-job failures are isolated (a throwing
// scenario becomes a failed entry, not a fatal error), and an optional
// checkpoint file makes the campaign resumable — completed entries are
// persisted as serialized JSON inside an "xbarlife.ckpt.v1" snapshot and
// spliced back verbatim on resume, so a killed-and-resumed campaign emits
// the same result document as an uninterrupted one.
#pragma once

#include <string>
#include <vector>

#include "core/sweep_checkpoint.hpp"
#include "resilience/resilience.hpp"

namespace xbarlife::core {

/// One point of the fault grid: a hardware-fault model plus the
/// resilience policy to run it under.
struct FaultPoint {
  std::string label;
  tuning::HardwareFaultConfig faults;  ///< fault_seed is overwritten per job
  resilience::ResilienceConfig resilience;
};

struct FaultCampaignConfig {
  ExperimentConfig base;
  std::vector<FaultPoint> points;
  std::vector<Scenario> scenarios{Scenario::kSTAT};
  /// Replicate r shares seed stream r across every point and scenario, so
  /// grid cells compare on identical data/init/drift/fault draws.
  std::size_t replicates = 1;
  std::uint64_t campaign_seed = 0x5eedULL;
  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Jobs per snapshot chunk when checkpointing (the save cadence; a
  /// killed campaign loses at most one chunk of work).
  std::size_t checkpoint_chunk = kDefaultSweepChunk;
  /// Per-job watchdog budget in wall-clock ms; <= 0 disables it.
  double job_timeout_ms = 0.0;

  void validate() const;
};

/// The campaign's job list, point-major: each point's replicates x
/// scenarios are contiguous, labelled "<point>/<scenario>/r<rep>", and
/// replicate r runs on seed stream r.
std::vector<ScenarioJob> fault_campaign_jobs(const FaultCampaignConfig& config);

/// Deterministic entry document for one campaign job (excludes wall_ms —
/// the one nondeterministic sweep field — so stored and fresh entries
/// serialize identically).
obs::JsonValue campaign_entry_json(const ScenarioSweepEntry& entry,
                                   const std::string& point);

/// Runs (or resumes) the campaign. Throws InvalidArgument on an empty or
/// inconsistent grid, IoError when the checkpoint file belongs to a
/// different campaign, CheckpointError when every snapshot generation is
/// corrupt, and InterruptedError when a cooperative shutdown left jobs
/// pending (completed work is already snapshotted).
SweepOutcome run_fault_campaign(const FaultCampaignConfig& config,
                                const obs::Obs& obs = {});

/// The campaign's result-document "data" payload:
///   {"campaign_seed":..., "job_count":N, "results":[<entries>]}
/// Entries restored from a checkpoint are spliced verbatim, so resumed
/// and uninterrupted campaigns dump identical bytes.
obs::JsonValue fault_campaign_json(const SweepOutcome& result);

}  // namespace xbarlife::core
