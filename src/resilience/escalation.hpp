// Bounded escalation ladder: the rescue policy a failed tuning session
// walks through before the array is declared end-of-life.
//
//   1. kRetry     — clamped cells get a fresh write-verify verdict and the
//                   layer is reprogrammed (cheapest; a handful of pulses).
//   2. kRemap     — the legacy rescue: redeploy under the scenario policy
//                   (aging-aware common-range reselection for ST+AT).
//   3. kFaultMask — high-|w| logical rows are steered off fault-heavy
//                   physical rows (Song-style fault masking), within the
//                   rows already in use.
//   4. kSpareRows — the worst physical rows are swapped for unused spare
//                   rows (needs HardwareFaultConfig::spare_rows > 0).
//   5. kDegraded  — the session keeps serving below target while accuracy
//                   stays at or above the configured floor.
//
// Each rung reprograms / retunes at most once, emits a `resilience_rung`
// trace event plus a `resilience.rung.<name>` counter, and the ladder
// stops at the first rung that restores the tuning target. Every rung
// answers the array's own state: a failing remote link never reaches the
// ladder, because the remote executor runs the sequence locally instead
// (xbar/remote.hpp) and the results stay sim's.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "tuning/online_tuner.hpp"

namespace xbarlife::resilience {

/// Rungs in order of invasiveness.
enum class Rung {
  kRetry,
  kRemap,
  kFaultMask,
  kSpareRows,
  kDegraded,
};

const char* to_string(Rung rung);

/// Outcome of one ladder walk (one failed session's rescue).
struct RescueOutcome {
  bool converged = false;  ///< a rung restored the tuning target
  bool degraded = false;   ///< serving below target, above the floor
  double accuracy = 0.0;   ///< accuracy after the last rung attempted
  std::size_t iterations = 0;      ///< tuning iterations the ladder burned
  std::vector<std::string> rungs;  ///< rungs attempted, in order
};

/// Everything a rung needs to redeploy and retune the network. The
/// referenced objects must outlive the rescue() call.
struct RescueContext {
  tuning::HardwareNetwork& hw;
  tuning::OnlineTuner& tuner;
  const data::Dataset& tune_data;
  const data::Dataset& eval_data;
  tuning::MappingPolicy policy;
  std::size_t levels;
  /// Range-selection evaluator; may be null for MappingPolicy::kFresh.
  const tuning::NetworkEvaluator& evaluator;
  double keep_threshold;
  double switch_margin;
  /// While ST+AT rides on this kFresh run: the remap rung's deploy also
  /// makes the aging-aware choice (HardwareNetwork::deploy's `shadow`).
  tuning::AwareShadow* shadow = nullptr;
};

class EscalationLadder {
 public:
  explicit EscalationLadder(ResilienceConfig config);

  const ResilienceConfig& config() const { return config_; }

  /// Walks the ladder after a non-converged tuning session whose final
  /// accuracy was `accuracy`. `session` labels the emitted events.
  RescueOutcome rescue(const RescueContext& ctx, std::size_t session,
                       double accuracy, const obs::Obs& obs) const;

 private:
  ResilienceConfig config_;
};

}  // namespace xbarlife::resilience
