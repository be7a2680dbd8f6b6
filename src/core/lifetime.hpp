// Lifetime simulation (Section V, Fig. 10 / Table I protocol).
//
// Applications are processed in sessions of `apps_per_session`. Between
// sessions the programmed conductances drift (recoverable read/retention
// disturbance — distinct from aging, see [8] vs [9][10]); online tuning
// pulls the array back to the target accuracy every session. Tuning
// pulses age the devices irreversibly.
//
// Hardware *mapping* is an event, not a session routine (Fig. 5): the
// array is mapped once at deployment, and remapped only as a rescue when
// tuning stops converging. The rescue follows the scenario policy — a
// fresh-range rewrite for the baselines, the Fig. 8 aging-aware common-
// range selection for ST+AT. When even the rescue's retry fails, the
// crossbar is end-of-life and the lifetime is the number of applications
// completed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint_loop.hpp"
#include "core/scenario.hpp"
#include "data/dataset.hpp"
#include "obs/obs.hpp"
#include "persist/checkpoint.hpp"
#include "resilience/escalation.hpp"
#include "tuning/online_tuner.hpp"

namespace xbarlife::core {

struct DriftConfig {
  /// Per-session multiplicative lognormal-ish resistance drift:
  /// r <- r * (1 + N(0, sigma)), clamped into the device's aged window.
  double sigma = 0.04;
};

struct LifetimeConfig {
  std::size_t levels = 32;
  std::uint64_t apps_per_session = 100000;
  std::size_t max_sessions = 200;  ///< safety cap; "survived" if reached
  tuning::TuningConfig tuning;
  DriftConfig drift;
  std::uint64_t drift_seed = 99;
  /// Samples for the aging-aware range-selection evaluator.
  std::size_t selection_eval_samples = 96;
  /// Predicted-accuracy gain a rescue's candidate range must deliver over
  /// the incumbent to justify rewriting the array.
  double rescue_switch_margin = 0.10;
  /// Escalation-ladder policy; governs rescues when the deployed network
  /// carries a hardware-fault model. On an ideal array, rescues follow
  /// the legacy single-shot remap path.
  resilience::ResilienceConfig resilience;
};

/// One re-tune session's outcome.
struct SessionRecord {
  std::size_t session = 0;
  std::uint64_t applications = 0;      ///< cumulative after this session
  std::size_t tuning_iterations = 0;   ///< incl. the rescue retry, if any
  bool rescued = false;                ///< a remap rescue was attempted
  bool converged = false;
  double start_accuracy = 0.0;         ///< right after mapping
  double accuracy = 0.0;               ///< after tuning
  std::uint64_t pulses_total = 0;      ///< cumulative programming pulses
  /// Ground-truth mean aged R_max per deployed layer (Fig. 11 series).
  std::vector<double> layer_mean_aged_rmax;
  /// Mean usable levels per deployed layer.
  std::vector<double> layer_mean_usable_levels;
  // --- resilience fields; populated (and serialized) only when the
  // escalation ladder governs rescues for this run.
  bool resilience_active = false;
  bool degraded = false;  ///< served below target, above the floor
  /// Ladder rungs attempted this session, in order (empty when the
  /// session converged without a rescue).
  std::vector<std::string> rescue_rungs;
  std::size_t cells_faulty = 0;   ///< manufacture stuck-at cells
  std::size_t cells_clamped = 0;  ///< write-verify clamped cells
  std::size_t cells_dead = 0;     ///< write-verify dead cells
};

struct LifetimeResult {
  std::vector<SessionRecord> sessions;
  std::uint64_t lifetime_applications = 0;
  bool died = false;  ///< true if a session failed before max_sessions
};

/// The run state at a rescue's start, captured while ST+AT rides on an
/// ST+T run: what ST+AT restarts that rescue from when it forks there.
struct RescueStart {
  /// LifetimeState::save bytes: the sessions before this one, the drift
  /// stream, the tuner cursor and the hardware.
  std::string state;
  SessionRecord rec;           ///< this session up to its rescue
  tuning::TuningResult tuned;  ///< the tune that did not converge
};

/// ST+AT riding on an ST+T lifetime (LifetimeSimulator::run's `ride`).
/// The two scenarios differ only in the range a (re)deployment picks, so
/// they are one run until the first deployment whose aging-aware choice
/// is not the fresh range.
struct AgingAwareRide {
  struct Fork {
    /// Session whose deployment differed; without `start` it was the
    /// initial deployment, and ST+AT starts from scratch.
    std::size_t session = 0;
    tuning::AwareShadow shadow;
    std::optional<RescueStart> start;
  };

  /// In: end the ST+T run at the fork (only ST+AT's result is wanted).
  bool stop_at_fork = false;
  /// Out: the ST+T run that never forked; ST+AT's result equals it.
  std::optional<LifetimeResult> unforked;
  /// Out: the first deployment that differed.
  std::optional<Fork> fork;

  bool settled() const { return unforked.has_value() || fork.has_value(); }
  /// Whole sessions ST+AT takes from the ST+T run.
  std::size_t shared_sessions() const;
};

/// A lifetime run's resumable state: the session log, the drift stream
/// position, the tuner's cursor and the full aged hardware state. The
/// fingerprint covers the config (max_sessions aside), the policy and the
/// network's shape.
class LifetimeState : public LoopState {
 public:
  /// `config`, `hw` and `tuner` must outlive the state.
  LifetimeState(const LifetimeConfig& config, tuning::HardwareNetwork& hw,
                tuning::OnlineTuner& tuner, tuning::MappingPolicy policy);

  LifetimeResult result;
  Rng drift_rng;
  std::size_t next_session = 0;

  std::string kind() const override;
  std::uint64_t fingerprint() const override;
  void save(persist::StateWriter& w) const override;
  void load(persist::StateReader& r) override;

 private:
  const LifetimeConfig& config_;
  tuning::HardwareNetwork* hw_;
  tuning::OnlineTuner* tuner_;
  tuning::MappingPolicy policy_;
};

class LifetimeSimulator {
 public:
  explicit LifetimeSimulator(LifetimeConfig config);

  const LifetimeConfig& config() const { return config_; }

  /// Runs the full lifetime protocol on an already-deployed-able network:
  /// `hw` must hold captured software targets. `policy` selects fresh vs
  /// aging-aware remapping. Returns the session log and lifetime.
  ///
  /// When observability is attached, the protocol streams its feedback
  /// loop as events — `session_start`, per-iteration `tune_iter`,
  /// `rescue`, `session_end` (the SessionRecord), and `eol` on death —
  /// and maintains the `lifetime.*` metrics. The default handle disables
  /// all instrumentation.
  ///
  /// With a `store`, every session is a checkpointed unit of a
  /// LifetimeState; a restored run skips the initial deployment, since
  /// the restored crossbars already hold the deployed (and aged) state.
  ///
  /// With a `ride` (never with a `store`) and kFresh, ST+AT rides along:
  /// every policy-dependent deployment (the initial one, the plain
  /// rescue, the ladder's remap rung) also makes the aging-aware choice,
  /// unobserved. The LifetimeState is saved at each rescue's start and
  /// dropped once the rescue kept the fresh range; the first deployment
  /// that differs is recorded in `ride->fork` with that snapshot, and a
  /// run that never forks leaves its result in `ride->unforked`. With a
  /// forked `ride` and kAgingAware, the run is ST+AT's from the fork on:
  /// the snapshot is loaded onto `hw` (built like the ST+T run's) and the
  /// session loop restarts the rescue.
  LifetimeResult run(tuning::HardwareNetwork& hw,
                     const data::Dataset& tune_data,
                     const data::Dataset& eval_data,
                     tuning::MappingPolicy policy,
                     const obs::Obs& obs = {},
                     persist::CheckpointStore* store = nullptr,
                     AgingAwareRide* ride = nullptr);

 private:
  /// Applies one session's recoverable drift to every crossbar cell.
  void apply_drift(tuning::HardwareNetwork& hw, Rng& rng);

  LifetimeConfig config_;
};

}  // namespace xbarlife::core
