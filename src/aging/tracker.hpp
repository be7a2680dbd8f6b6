// Representative aging tracer (Section IV-B of the paper).
//
// Tracing the programming history of every memristor would need bookkeeping
// hardware per cell; the paper instead traces one out of nine memristors —
// the center of every 3x3 block — and estimates the aged bounds of the whole
// array from those representatives. This class is that estimation tool: the
// lifetime simulator records pulses into it, and the aging-aware mapper is
// only allowed to look at the tracker (never at the true per-device state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aging/aging_model.hpp"
#include "obs/metrics.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::aging {

class RepresentativeTracker {
 public:
  /// Traces a rows x cols array. Representatives sit at the centers of the
  /// 3x3 tiling: cells whose row % 3 == 1 and col % 3 == 1 (with edge tiles
  /// clamped, every cell belongs to exactly one representative).
  RepresentativeTracker(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// True when (r, c) is a traced cell.
  bool is_representative(std::size_t r, std::size_t c) const;

  /// Representative responsible for cell (r, c) — the center of its block.
  std::pair<std::size_t, std::size_t> representative_for(
      std::size_t r, std::size_t c) const;

  /// Records one programming pulse on cell (r, c). Per-cell stress is only
  /// stored for traced cells (the hardware has no counters elsewhere), but
  /// the array-wide ambient share is a single accumulator the controller
  /// can always afford — pass the pulse's thermal-crosstalk contribution
  /// as `ambient_increment`.
  void record_pulse(std::size_t r, std::size_t c, double stress_increment,
                    double ambient_increment = 0.0);

  /// record_pulse without touching the attached obs counters: identical
  /// floating-point updates, returns 1 when the pulse landed on a traced
  /// representative and 0 otherwise. Batched executors call this per pulse
  /// and flush the counters once per batch via tally_pulses, keeping the
  /// totals identical to the per-pulse path while amortizing the (atomic)
  /// counter traffic.
  std::uint64_t record_pulse_untallied(std::size_t r, std::size_t c,
                                       double stress_increment,
                                       double ambient_increment = 0.0);

  /// Flushes batched counter credit: `pulses` recorded pulses of which
  /// `traced` hit representatives.
  void tally_pulses(std::uint64_t pulses, std::uint64_t traced);

  /// Traced array-wide ambient (thermal) stress.
  double ambient_stress() const { return ambient_; }

  /// Accumulated traced stress of the representative covering (r, c).
  double stress_estimate(std::size_t r, std::size_t c) const;

  /// All representative stress values (row-major over blocks).
  const std::vector<double>& representative_stresses() const {
    return stress_;
  }

  /// Traced pulse count of the representative covering (r, c).
  std::uint64_t pulse_estimate(std::size_t r, std::size_t c) const;

  /// Estimated aged windows of all representatives, given fresh bounds.
  std::vector<AgedWindow> estimated_windows(const AgingModel& model,
                                            double r_fresh_min,
                                            double r_fresh_max) const;

  std::size_t block_rows() const { return block_rows_; }
  std::size_t block_cols() const { return block_cols_; }

  /// Resets all traced history (fresh array). Attached counters are kept
  /// (they are cumulative run totals, not array state).
  void reset();

  /// Attaches observability counters (either may be null): `pulses` counts
  /// every recorded pulse, `traced_pulses` only those landing on a
  /// representative. Counters must outlive the tracker; pass nullptrs to
  /// detach. With no counters attached recording costs one branch.
  void attach_counters(obs::Counter* pulses, obs::Counter* traced_pulses);

  /// Serializes the traced history (per-block stress/ambient/pulses plus
  /// the array-wide ambient pool). Geometry and attached counters are not
  /// part of the snapshot; load_state checks the block count matches.
  /// The blocks travel as one run of kBlockStateBytes each: stress,
  /// ambient self share (f64), pulses (u64).
  void save_state(persist::StateWriter& w) const;
  void load_state(persist::StateReader& r);

  static constexpr std::size_t kBlockStateBytes = 2 * 8 + 8;
  /// Exact size of the save_state payload.
  std::size_t state_bytes() const {
    return 8 + stress_.size() * kBlockStateBytes + 8;
  }

 private:
  std::size_t block_index(std::size_t r, std::size_t c) const;

  std::size_t rows_;
  std::size_t cols_;
  std::size_t block_rows_;
  std::size_t block_cols_;
  std::vector<double> stress_;         // per block
  std::vector<double> self_ambient_;   // per block: rep's own pool exports
  std::vector<std::uint64_t> pulses_;  // per block
  double ambient_ = 0.0;               // array-wide thermal share
  obs::Counter* pulse_counter_ = nullptr;
  obs::Counter* traced_pulse_counter_ = nullptr;
};

}  // namespace xbarlife::aging
