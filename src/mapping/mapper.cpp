#include "mapping/mapper.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife::mapping {

MappingPlan::MappingPlan(WeightRange weights, ResistanceRange fresh,
                         std::size_t fresh_levels, double upper_cut)
    // The weight range maps onto the *usable* conductance range so every
    // target stays on a usable level.
    : quantizer_(fresh, fresh_levels, upper_cut),
      map_(weights, quantizer_.range().g_min(),
           quantizer_.range().g_max()) {}

MappingPlan::MappingPlan(WeightRange weights, ResistanceRange fresh,
                         std::size_t fresh_levels)
    : MappingPlan(weights, fresh, fresh_levels, fresh.r_hi) {}

double MappingPlan::target_resistance(double weight) const {
  const double g = map_.weight_to_conductance(weight);
  const std::size_t level = quantizer_.nearest_level_for_conductance(g);
  return quantizer_.level_resistance(level);
}

Tensor predict_effective_weights(
    const Tensor& weights, const MappingPlan& plan,
    const std::function<aging::AgedWindow(std::size_t, std::size_t)>&
        window_of) {
  XB_CHECK(weights.shape().rank() == 2, "weights must be rank-2");
  XB_CHECK(window_of != nullptr, "window functor required");
  const std::size_t rows = weights.shape()[0];
  const std::size_t cols = weights.shape()[1];
  Tensor eff(weights.shape());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double target =
          plan.target_resistance(static_cast<double>(weights.at(r, c)));
      const aging::AgedWindow w = window_of(r, c);
      const double achieved =
          std::clamp(target, std::min(w.r_min, w.r_max),
                     std::max(w.r_min, w.r_max));
      eff.at(r, c) = static_cast<float>(plan.weight_of_resistance(achieved));
    }
  }
  return eff;
}

namespace {

/// Per-active-cell record carried from the build pass to the fold pass,
/// in the canonical column-major order.
struct CellVisit {
  double w = 0.0;         ///< weight being mapped
  double g_target = 0.0;  ///< target conductance
  double achieved = 0.0;  ///< stored resistance at build time (pre-write)
  std::size_t idx = 0;    ///< row-major index into stuck/pinned maps
  std::uint8_t state = kCellHealthy;
  bool programmed = false;
};

}  // namespace

MappingReport program_weights(xbar::Crossbar& xbar, const Tensor& weights,
                              const MappingPlan& plan, bool skip_unchanged,
                              std::vector<std::uint8_t>* stuck,
                              std::vector<float>* pinned_g,
                              const std::vector<std::uint8_t>* row_active,
                              const xbar::ProgramExecutor* executor) {
  XB_CHECK(weights.shape().rank() == 2 &&
               weights.shape()[0] == xbar.rows() &&
               weights.shape()[1] == xbar.cols(),
           "weight matrix must match crossbar dimensions");
  XB_CHECK(row_active == nullptr || row_active->size() == xbar.rows(),
           "row-active mask size must match the crossbar rows");
  MappingReport report;
  std::size_t active_rows = xbar.rows();
  if (row_active != nullptr) {
    active_rows = 0;
    for (const std::uint8_t a : *row_active) {
      active_rows += a != 0;
    }
  }
  XB_CHECK(active_rows > 0, "row-active mask must keep at least one row");
  report.total_cells = active_rows * xbar.cols();
  const std::size_t full_cells = xbar.rows() * xbar.cols();
  XB_CHECK(stuck == nullptr || stuck->size() == full_cells,
           "stuck map size must match the crossbar");
  XB_CHECK(stuck == nullptr ||
               (pinned_g != nullptr && pinned_g->size() == full_cells),
           "a stuck map needs a matching pinned-conductance map");
  if (executor == nullptr) {
    executor = &xbar::select_executor();
  }
  // Skip cells already within half a quantization step of the target *in
  // conductance space*: weight error is proportional to conductance error
  // (Eq. 4 is linear in g), so this is the fidelity criterion a
  // read-verify-program controller actually cares about.
  const auto& range = plan.quantizer().range();
  const double skip_tol =
      0.5 * (range.g_max() - range.g_min()) /
      static_cast<double>(plan.quantizer().levels() - 1);

  // Build: walk cells column-major (the sequence's canonical per-column
  // batching order), decide which need a pulse against their *stored*
  // pre-write state — each cell appears at most once, so build-time reads
  // are independent of the later execution — and emit the pulses.
  xbar::SequenceBuilder builder(xbar.rows(), xbar.cols());
  std::vector<CellVisit> visits;
  visits.reserve(report.total_cells);
  double sum_g = 0.0;
  for (std::size_t c = 0; c < xbar.cols(); ++c) {
    for (std::size_t r = 0; r < xbar.rows(); ++r) {
      if (row_active != nullptr && (*row_active)[r] == 0) {
        continue;  // Unused spare row: never pulsed, never scored.
      }
      CellVisit v;
      v.w = static_cast<double>(weights.at(r, c));
      const double target = plan.target_resistance(v.w);
      v.g_target = 1.0 / target;
      sum_g += v.g_target;
      v.idx = r * xbar.cols() + c;
      v.achieved = xbar.cell(r, c).resistance();
      v.state = stuck != nullptr ? (*stuck)[v.idx] : kCellHealthy;
      if (v.state == kCellDead) {
        // A dead cell's window is pinned: writes cannot move it and drift
        // cannot either, so the controller retires it completely.
        visits.push_back(v);
        continue;
      }
      bool needs_write = !skip_unchanged ||
                         std::fabs(1.0 / v.achieved - v.g_target) > skip_tol;
      if (v.state == kCellClamped) {
        // The target is known unreachable; pulse only to correct material
        // drift away from the pinned best-achievable value.
        needs_write = std::fabs(1.0 / v.achieved -
                                static_cast<double>((*pinned_g)[v.idx])) >
                      skip_tol;
      }
      if (needs_write) {
        builder.pulse(r, c, target);
        v.programmed = true;
      }
      visits.push_back(v);
    }
  }

  // Execute: one batched command stream through the selected backend.
  const xbar::ProgramSequence seq = builder.build();
  const xbar::ExecReport exec = executor->execute(xbar, seq);

  // Fold: walk the visits in the same order, consuming one pulse result
  // per programmed cell, and run the write-verify state machine.
  double sq_err = 0.0;
  std::size_t op_cursor = 0;
  const std::vector<xbar::ProgramOp>& ops = seq.ops();
  for (CellVisit& v : visits) {
    double achieved = v.achieved;
    if (v.programmed) {
      while (op_cursor < ops.size() &&
             ops[op_cursor].kind != xbar::OpKind::kProgramPulse) {
        ++op_cursor;  // Barriers between column batches carry no result.
      }
      XB_ASSERT(op_cursor < ops.size(),
                "program_weights fold ran out of pulse results");
      const double g_before = 1.0 / achieved;
      achieved = exec.results[op_cursor];
      ++op_cursor;
      ++report.programmed_cells;
      if (std::fabs(1.0 / achieved - v.g_target) > skip_tol) {
        if (v.state == kCellHealthy) {
          // Write-verify failed: the aged window no longer covers the
          // target. Blacklist the cell for the tuning controller and
          // pin its best-achievable value.
          ++report.clamped_cells;
          if (stuck != nullptr) {
            (*stuck)[v.idx] = kCellClamped;
            (*pinned_g)[v.idx] = static_cast<float>(1.0 / achieved);
          }
        } else if (std::fabs(1.0 / achieved - g_before) < 0.05 * skip_tol) {
          // The pulse moved nothing: the window has collapsed. Retire
          // the cell so later sessions stop burning it.
          (*stuck)[v.idx] = kCellDead;
        } else {
          // Still alive but still clamped: refresh the pin.
          (*pinned_g)[v.idx] = static_cast<float>(1.0 / achieved);
        }
      }
    }
    const double w_eff = plan.weight_of_resistance(achieved);
    sq_err += (w_eff - v.w) * (w_eff - v.w);
  }
  report.quantization_rmse =
      std::sqrt(sq_err / static_cast<double>(report.total_cells));
  report.mean_target_conductance =
      sum_g / static_cast<double>(report.total_cells);
  return report;
}

}  // namespace xbarlife::mapping
