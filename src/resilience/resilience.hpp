// Resilience policy for deployed crossbars: configuration of the bounded
// escalation ladder that replaces the single-shot remap rescue when device
// faults are in play, plus the fault-census and fault-masking helpers the
// ladder's rungs are built from.
//
// The ladder trades programming pulses (which age the array) for lifetime:
// each rung is strictly more invasive than the previous one, and a rung
// only runs when the cheaper ones failed to restore the tuning target.
// The ladder engages only on an array with a hardware fault model; on an
// ideal array a failed session gets the single-shot remap rescue.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tuning/hardware_network.hpp"

namespace xbarlife::resilience {

/// Knobs of the escalation ladder (see escalation.hpp for the rungs).
struct ResilienceConfig {
  /// Master switch: with the ladder off, a failed session falls back to
  /// the legacy single-shot remap rescue even on a faulty array.
  bool ladder_enabled = true;
  /// Rung 5: a session that still misses the tuning target keeps serving
  /// in degraded mode while accuracy stays at or above this floor; below
  /// it the array is end-of-life. Set to 1.0 to disable degraded mode.
  double degraded_accuracy_floor = 0.5;

  void validate() const;

  /// Whether the ladder governs rescues for a network deployed with
  /// `faults`: switched on, with any hardware fault model present.
  bool active_for(const tuning::HardwareFaultConfig& faults) const {
    return ladder_enabled && faults.active();
  }
};

/// Network-wide bad-cell census (sum of per-layer counts).
struct FaultCensus {
  std::size_t manufacture = 0;
  std::size_t clamped = 0;
  std::size_t dead = 0;
  std::size_t cells = 0;

  std::size_t bad() const { return clamped + dead; }
};

/// Census over every deployed layer's active cells.
FaultCensus census(const tuning::HardwareNetwork& hw);

/// Builds a fault-masking logical-to-physical row permutation for layer
/// `i`: logical rows are ranked by summed |target weight| and assigned to
/// physical rows ranked by bad-cell count, so the weights that matter
/// most land on the healthiest rows. With `use_spares` the whole physical
/// row space (including unused spare rows) is eligible; otherwise only
/// the rows currently mapped. Returns an empty vector when the resulting
/// assignment is the layer's current mapping (nothing to gain).
std::vector<std::size_t> fault_masking_permutation(
    const tuning::HardwareNetwork& hw, std::size_t i, bool use_spares);

}  // namespace xbarlife::resilience
