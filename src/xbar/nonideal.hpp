// Analog non-idealities of memristor crossbars.
//
// The paper's evaluation assumes ideal programming and readout apart from
// quantization and aging; real arrays add cycle-to-cycle programming
// variability, read noise, manufacturing stuck-at faults and wire (IR)
// resistance. This module provides injectable models of each so the
// robustness of the counter-aging framework can be studied (see the
// ablation bench) — the same non-idealities the aihwkit-style simulators
// expose.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace xbarlife::xbar {

struct NonidealityConfig {
  /// Cycle-to-cycle programming variability: the achieved conductance is
  /// multiplied by (1 + N(0, sigma)) at write time.
  double write_noise_sigma = 0.0;
  /// Read noise: each conductance read is multiplied by (1 + N(0, sigma)).
  double read_noise_sigma = 0.0;
  /// Fraction of cells stuck at the low-conductance end from manufacture.
  double stuck_off_fraction = 0.0;
  /// Fraction of cells stuck at the high-conductance end.
  double stuck_on_fraction = 0.0;
  /// Wire resistance per cell-to-cell segment (ohms); models the IR-drop
  /// attenuation of far cells in a first-order way.
  double line_resistance = 0.0;

  /// True when any knob is nonzero — the all-zero config is the exact
  /// ideal-array behaviour (no RNG draws, no fault map, bit-identical to a
  /// build without the nonideality layer).
  bool any() const {
    return write_noise_sigma != 0.0 || read_noise_sigma != 0.0 ||
           stuck_off_fraction != 0.0 || stuck_on_fraction != 0.0 ||
           line_resistance != 0.0;
  }

  void validate() const;
};

/// Stuck-at fault map generated at "manufacture" time.
class FaultMap {
 public:
  /// Draws a deterministic fault map for a rows x cols array.
  FaultMap(std::size_t rows, std::size_t cols,
           const NonidealityConfig& config, std::uint64_t seed);

  enum class Fault : std::uint8_t { kNone, kStuckOff, kStuckOn };

  Fault at(std::size_t r, std::size_t c) const;
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t fault_count() const { return faults_total_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint8_t> faults_;
  std::size_t faults_total_ = 0;
};

/// Applies write noise to a target conductance (returns the perturbed
/// conductance the cell actually reaches).
double apply_write_noise(const NonidealityConfig& config, double g,
                         Rng& rng);

/// Applies read noise to a conductance sample.
double apply_read_noise(const NonidealityConfig& config, double g,
                        Rng& rng);

/// First-order IR-drop attenuation of the cell at (r, c) in a rows x cols
/// array: the effective conductance seen at the periphery shrinks with
/// the wire length of the current path, g_eff = g / (1 + g * R_wire(r,c))
/// with R_wire = line_resistance * (r + c + 2) (worst-case corner
/// farthest from the drivers/sense amps).
double ir_drop_conductance(const NonidealityConfig& config, double g,
                           std::size_t r, std::size_t c);

}  // namespace xbarlife::xbar
