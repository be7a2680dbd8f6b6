// Resistance-domain quantizer (Section II-B, Figs. 3, 4 and 8).
//
// The programming DAC realizes a *fixed* grid of L uniform resistance
// levels over the fresh device window (32 in [14], 64 in [15]). Because
// g = 1/R, the induced conductance levels are non-uniform: dense near
// g_min, sparse near g_max — the property skewed-weight training exploits.
//
// Aging removes levels from the top of the grid (Fig. 4: 8 fresh levels ->
// 3 aged). The aging-aware mapper therefore works with a *prefix* of the
// fresh grid: the quantizer is anchored to the fresh window and truncated
// at an upper cut; it never re-spaces the levels. (Re-spacing L levels over
// a shrunken range would paradoxically make small ranges more precise —
// hardware DACs cannot do that.)
#pragma once

#include <cstddef>
#include <vector>

namespace xbarlife::mapping {

/// A resistance interval [r_lo, r_hi].
struct ResistanceRange {
  double r_lo = 0.0;  ///< smallest resistance (largest conductance)
  double r_hi = 0.0;  ///< largest resistance (smallest conductance)

  double g_min() const { return 1.0 / r_hi; }
  double g_max() const { return 1.0 / r_lo; }
  bool valid() const { return r_lo > 0.0 && r_hi > r_lo; }
};

class ResistanceQuantizer {
 public:
  /// Fixed grid of `fresh_levels` uniform levels over `fresh` (level 0 =
  /// r_lo), truncated at `upper_cut`: only levels with resistance <=
  /// upper_cut are usable. At least two levels always remain usable.
  ResistanceQuantizer(ResistanceRange fresh, std::size_t fresh_levels,
                      double upper_cut);

  /// Untruncated grid (upper_cut = fresh.r_hi).
  ResistanceQuantizer(ResistanceRange fresh, std::size_t fresh_levels);

  /// Number of *usable* levels (after the cut).
  std::size_t levels() const { return usable_levels_; }
  /// Total levels of the fresh grid.
  std::size_t fresh_levels() const { return fresh_levels_; }

  /// Usable range: [fresh r_lo, resistance of the last usable level].
  const ResistanceRange& range() const { return usable_range_; }
  const ResistanceRange& fresh_range() const { return fresh_; }

  /// Resistance of usable level k (k < levels()).
  double level_resistance(std::size_t k) const;
  /// Conductance of usable level k (= 1 / level_resistance(k)).
  double level_conductance(std::size_t k) const;

  /// Usable level whose resistance is closest to `r` (clamped).
  std::size_t nearest_level_for_resistance(double r) const;

  /// Usable level whose *conductance* is closest to `g` (clamped). This is
  /// the quantization applied during weight mapping: the target
  /// conductance from Eq. (4) snaps to the nearest usable level.
  std::size_t nearest_level_for_conductance(double g) const;

  /// Spacing of the fresh resistance grid.
  double resistance_step() const { return step_; }

 private:
  ResistanceRange fresh_;
  std::size_t fresh_levels_;
  double step_;
  std::size_t usable_levels_;
  ResistanceRange usable_range_;
};

}  // namespace xbarlife::mapping
