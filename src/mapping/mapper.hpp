// Weight-matrix mapper: Eq. (4) + quantization onto a crossbar.
//
// Two paths:
//   * predict_effective_weights — pure software preview of what the array
//     would hold after mapping (used by the aging-aware range selection,
//     which must not burn programming pulses while comparing candidates).
//   * program_weights — physically programs the crossbar, aging the cells.
#pragma once

#include <functional>

#include "aging/aging_model.hpp"
#include "common/error.hpp"
#include "mapping/linear_map.hpp"
#include "mapping/quantizer.hpp"
#include "tensor/tensor.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/executor.hpp"

namespace xbarlife::mapping {

/// A complete per-crossbar mapping decision: the fresh level grid, the
/// selected upper cut (aging-aware mapping truncates the grid, Fig. 8),
/// and the weight->conductance transfer over the usable range.
class MappingPlan {
 public:
  /// Grid of `fresh_levels` over `fresh`, truncated at `upper_cut`; the
  /// weight range maps linearly onto the *usable* conductance range.
  MappingPlan(WeightRange weights, ResistanceRange fresh,
              std::size_t fresh_levels, double upper_cut);

  /// Untruncated plan (upper_cut = fresh.r_hi).
  MappingPlan(WeightRange weights, ResistanceRange fresh,
              std::size_t fresh_levels);

  const LinearMap& map() const { return map_; }
  const ResistanceQuantizer& quantizer() const { return quantizer_; }
  /// Usable (possibly truncated) resistance range.
  const ResistanceRange& resistance_range() const {
    return quantizer_.range();
  }

  /// Target resistance for `weight`: Eq. (4) then snap to nearest
  /// conductance level.
  double target_resistance(double weight) const;

  /// Weight recovered from a programmed resistance.
  double weight_of_resistance(double r) const {
    XB_CHECK(r > 0.0, "resistance must be positive");
    return map_.conductance_to_weight(1.0 / r);
  }

 private:
  // Order matters: map_ is initialized from quantizer_'s usable range.
  ResistanceQuantizer quantizer_;
  LinearMap map_;
};

struct MappingReport {
  std::size_t total_cells = 0;
  std::size_t programmed_cells = 0;  ///< cells that needed a pulse
  std::size_t clamped_cells = 0;     ///< achieved != target (aged window)
  double quantization_rmse = 0.0;    ///< weight-domain RMSE vs. targets
  double mean_target_conductance = 0.0;
};

/// Software preview: the effective weight matrix the crossbar would hold
/// after mapping `weights` under `plan`, with each cell's achievable window
/// supplied by `window_of(r, c)` (e.g. the tracker's representative
/// estimate). Pass a fresh-window functor for ideal-quantization studies.
Tensor predict_effective_weights(
    const Tensor& weights, const MappingPlan& plan,
    const std::function<aging::AgedWindow(std::size_t, std::size_t)>&
        window_of);

/// Programs `weights` (rank-2, shape == crossbar dims) into `xbar`.
///
/// With `skip_unchanged` (read-verify-program controller), cells already
/// within half a conductance step of their target are not pulsed; without
/// it every cell receives a write pulse, which is how a full hardware
/// mapping pass behaves (Fig. 5's "hardware mapping" stage). Returns the
/// report; fetch effective weights afterwards via effective_weights().
/// Write-verify cell states tracked by the controller's bad-cell list.
inline constexpr std::uint8_t kCellHealthy = 0;
/// Window no longer covers the target: best-effort writes continue (they
/// pin the cell at its window edge, cancelling drift) but the tuning
/// controller skips the cell.
inline constexpr std::uint8_t kCellClamped = 1;
/// Window fully collapsed (writes move nothing): the cell is retired —
/// never pulsed again. Its value is pinned, so drift cannot move it
/// either.
inline constexpr std::uint8_t kCellDead = 2;

/// `stuck`, when non-null, is a rows*cols row-major bad-cell list the
/// write-verify controller maintains with the kCell* states above, and
/// `pinned_g` (same size, required with `stuck`) remembers each clamped
/// cell's best-achievable conductance: clamped cells are re-pulsed only
/// when their readback drifts materially away from that pinned value —
/// target-chasing a window that cannot reach the target would burn a
/// pulse every session for nothing. Clear both whenever the plan's range
/// changes so every cell gets a fresh verdict against its new target.
///
/// `row_active`, when non-null, is a rows-sized mask; rows with a zero
/// entry (unused spare rows of an over-provisioned array) are skipped
/// entirely and excluded from the report's totals and RMSE.
///
/// Internally this is a build / execute / fold pipeline: the write-verify
/// controller walks cells in the canonical column-major order, emits the
/// needed pulses as one ProgramSequence (batched per column by the
/// SequenceBuilder), executes it through `executor` (the process-wide
/// selected backend when null), and folds the per-op results back into
/// the verify state machine and the report.
MappingReport program_weights(
    xbar::Crossbar& xbar, const Tensor& weights, const MappingPlan& plan,
    bool skip_unchanged = true, std::vector<std::uint8_t>* stuck = nullptr,
    std::vector<float>* pinned_g = nullptr,
    const std::vector<std::uint8_t>* row_active = nullptr,
    const xbar::ProgramExecutor* executor = nullptr);

/// Weights currently held by the crossbar under `plan`'s transfer, as
/// seen through the read periphery (read noise / IR drop when the array
/// is nonideal; the exact stored values otherwise).
Tensor effective_weights(const xbar::Crossbar& xbar,
                         const MappingPlan& plan);

}  // namespace xbarlife::mapping
