// Memristor crossbar array (Fig. 1 of the paper).
//
// A crossbar holds rows x cols memristor cells sharing one device-parameter
// set and one aging model. It is driven the way a run drives it: programming
// pulses (which age the cells) and reads through the periphery, from which
// the network's weights are rebuilt for evaluation. Every cell programming
// operation is mirrored into the RepresentativeTracker (the 1-of-9 traced
// history the aging-aware mapper is allowed to inspect) while the cells
// themselves keep the exact ground-truth stress used by the simulator.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "aging/aging_model.hpp"
#include "aging/tracker.hpp"
#include "common/rng.hpp"
#include "device/memristor.hpp"
#include "xbar/nonideal.hpp"
#include "xbar/program_sequence.hpp"

namespace xbarlife::obs {
class Profiler;
}  // namespace xbarlife::obs

namespace xbarlife::xbar {

/// Aggregate ground-truth aging statistics of an array.
struct CrossbarAgingStats {
  double mean_stress = 0.0;
  double max_stress = 0.0;
  double mean_aged_r_max = 0.0;
  double min_aged_r_max = 0.0;
  double mean_usable_levels = 0.0;
  std::size_t min_usable_levels = 0;
  std::uint64_t total_pulses = 0;
};

class Crossbar {
 public:
  Crossbar(std::size_t rows, std::size_t cols,
           const device::DeviceParams& params,
           const aging::AgingParams& aging_params);

  // Cells reference the crossbar-owned params/model, so the array must not
  // be copied or moved after construction.
  Crossbar(const Crossbar&) = delete;
  Crossbar& operator=(const Crossbar&) = delete;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Rendezvous key the remote executor hashes to pick the array's
  /// owning endpoint. Whoever owns the array sets it: HardwareNetwork
  /// draws one per layer from the job's fault_seed, so ownership depends
  /// on the job, never on construction order or thread count. Defaults to
  /// 0; it never influences simulation results.
  void set_owner_key(std::uint64_t key) { owner_key_ = key; }
  std::uint64_t owner_key() const { return owner_key_; }
  const device::DeviceParams& device_params() const { return params_; }
  const aging::AgingModel& aging_model() const { return model_; }

  const device::Memristor& cell(std::size_t r, std::size_t c) const;

  /// Every cell, row-major (cell(r, c) is cells()[r * cols() + c]): the
  /// unchecked read view for passes over the whole array. Stored values
  /// only; reads through the periphery go through read_*.
  std::span<const device::Memristor> cells() const { return cells_; }

  /// Installs analog non-idealities on this array: a manufacture-time
  /// stuck-at FaultMap drawn from `seed` (faulty cells are pinned at their
  /// defect value immediately), cycle-to-cycle write noise applied on every
  /// programming pulse, and read noise / IR drop applied by the read_*
  /// accessors. Must be called before the first programming pulse. An
  /// all-zero config is a no-op: the array stays ideal, draws no random
  /// numbers, and behaves bit-identically to an unconfigured one.
  void configure_nonideality(const NonidealityConfig& config,
                             std::uint64_t seed);

  /// True once a nonzero NonidealityConfig has been installed.
  bool nonideal() const { return nonideal_.has_value(); }
  /// The installed config, or null for an ideal array. Together with
  /// nonideality_seed() this is everything a remote worker needs to
  /// rebuild an identically-configured array (the FaultMap and RNG
  /// streams are deterministic functions of config + seed).
  const NonidealityConfig* nonideality_config() const {
    return nonideal_.has_value() ? &*nonideal_ : nullptr;
  }
  /// Seed configure_nonideality() was called with; 0 for an ideal array.
  std::uint64_t nonideality_seed() const { return nonideality_seed_; }
  /// Manufacture-time fault map; null when no stuck faults were drawn.
  const FaultMap* fault_map() const { return faults_.get(); }

  /// Programs cell (r, c) toward `target_r` ohms; returns the achieved
  /// resistance. Ages the cell and updates the tracker when traced.
  /// Under nonideality the pulse still ages the cell, but a stuck cell's
  /// resistance snaps back to its defect value and a healthy cell's
  /// achieved conductance picks up write noise.
  ///
  /// This is a thin wrapper over a one-pulse sequence: it executes a
  /// single ProgramOp through the legacy per-cell path. Tuning and
  /// resilience code should emit ProgramSequences and run them through a
  /// ProgramExecutor (xbar/executor.hpp) instead of calling this in a
  /// loop — see docs/programming.md.
  double program_cell(std::size_t r, std::size_t c, double target_r);

  /// Executes a contiguous run of kProgramPulse ops in order with the
  /// per-pulse invariants (Arrhenius factor, window-exponent pow, bounds
  /// setup, tracker counter flush) hoisted out of the loop. `results[i]` receives each achieved resistance.
  /// Bit-identical to issuing the same ops through program_cell one at a
  /// time. Called by SimExecutor; not intended as a user-facing API.
  void program_batch(std::span<const ProgramOp> ops,
                     std::span<double> results);

  /// Executor bookkeeping: bumps the attached executor counters for one
  /// executed sequence. Both backends call it with the same structural
  /// stats, so the counters never depend on the backend choice.
  void note_sequence_executed(const SequenceStats& stats);

  /// Bumps the attached pulse counters without touching any array state.
  /// The remote executor calls this after restoring a worker-produced
  /// snapshot: the snapshot already contains the pulses' effects (and
  /// total_pulses), but obs counters live client-side and would otherwise
  /// miss the increments the worker's execution produced.
  void credit_pulse_counters(std::uint64_t pulses, std::uint64_t traced) {
    tracker_.tally_pulses(pulses, traced);
  }

  /// Recoverable drift on cell (r, c): resistance moves without a pulse.
  /// Stuck cells do not drift — the defect pins them.
  void drift_cell(std::size_t r, std::size_t c, double new_r);

  /// One drift step over the whole array, row-major: each cell draws one
  /// factor 1 + N(0, sigma) from `rng` and drifts to its resistance times
  /// max(factor, 0.05). Stuck cells draw their sample but do not move.
  /// Bit-identical to the same drift_cell loop.
  void drift_pass(Rng& rng, double sigma);

  /// Conductance as seen by the read periphery: the stored value plus
  /// read noise and IR-drop attenuation when nonideality is configured.
  /// Serial-use only (the noise stream is ordered); returns the exact
  /// stored conductance on an ideal array.
  double read_conductance(std::size_t r, std::size_t c) const;

  /// Reciprocal view of read_conductance; returns the exact stored
  /// resistance (no double roundtrip) on an ideal array.
  double read_resistance(std::size_t r, std::size_t c) const;

  /// Ground-truth aging aggregate over all cells.
  CrossbarAgingStats aging_stats() const;

  /// The traced (1-of-9) history available to the mapper.
  const aging::RepresentativeTracker& tracker() const { return tracker_; }

  /// Attaches observability pulse counters to the tracker (either may be
  /// null to detach); counters must outlive the crossbar.
  void attach_pulse_counters(obs::Counter* pulses,
                             obs::Counter* traced_pulses) {
    tracker_.attach_counters(pulses, traced_pulses);
  }

  /// Attaches executor observability counters (either may be null to
  /// detach): `sequences` counts executed ProgramSequences,
  /// `column_batches` the contiguous pulse runs inside them. Counters
  /// must outlive the crossbar.
  void attach_executor_counters(obs::Counter* sequences,
                                obs::Counter* column_batches) {
    seq_counter_ = sequences;
    batch_counter_ = column_batches;
  }

  /// Attaches a span profiler (null to detach). The remote executor opens
  /// one "executor.remote.execute" span per shipped sequence, whichever
  /// endpoint serves it, and grafts the worker's span tree under it;
  /// in-process backends ignore it. Must outlive the crossbar.
  void attach_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  obs::Profiler* profiler() const { return profiler_; }

  /// Attaches the registry (null to detach) the remote executor, its
  /// endpoint links and the frame codec report into while executing on
  /// this array; in-process backends ignore it. Must outlive the
  /// crossbar.
  void attach_metrics(obs::Registry* metrics) { metrics_ = metrics; }
  obs::Registry* metrics() const { return metrics_; }

  std::uint64_t total_pulses() const { return total_pulses_; }

  /// Array-wide thermal-crosstalk stress pool shared by every cell.
  double ambient_stress() const { return ambient_stress_; }

  /// Serializes the complete mutable array state: every cell's resistance
  /// and aging history, the tracker, the ambient pool, and the write/read
  /// noise stream positions. The nonideality config and FaultMap are NOT
  /// serialized — both are deterministic functions of the config/seed the
  /// owner re-applies on reconstruction (stuck pins are then overwritten
  /// by the restored cell resistances, which already include them).
  /// The cells travel as one block of kCellStateBytes per cell, in
  /// row-major order: resistance, stress, last increment, ambient self
  /// share (f64 each), pulse count (u64).
  void save_state(persist::StateWriter& w) const;

  static constexpr std::size_t kCellStateBytes = 4 * 8 + 8;
  /// Exact size of the save_state payload.
  std::size_t state_bytes() const;

  /// Restores a save_state snapshot onto an identically-shaped array that
  /// has already been configured the same way (same nonideality config and
  /// seed). Throws on geometry mismatch.
  void load_state(persist::StateReader& r);

 private:
  /// Bounds-checked mutable access for the per-cell paths.
  device::Memristor& mutable_cell(std::size_t r, std::size_t c);

  /// Reference per-pulse body behind program_cell (and so the
  /// PerCellExecutor): full per-pulse device math plus immediate
  /// tracker/counter updates. The batched path reproduces these
  /// floating-point updates exactly (see program_batch) while hoisting
  /// the invariants.
  double apply_pulse_percell(const ProgramOp& op);

  /// Stuck-cell snap-back / write-noise step shared verbatim by the
  /// per-cell and batched paths (the write-noise RNG stream is ordered,
  /// so both paths must consume it identically).
  double apply_post_pulse_nonideality(std::size_t r, std::size_t c,
                                      device::Memristor& m, double achieved);

  std::size_t rows_;
  std::size_t cols_;
  device::DeviceParams params_;
  aging::AgingModel model_;
  std::vector<device::Memristor> cells_;
  aging::RepresentativeTracker tracker_;
  std::uint64_t owner_key_ = 0;
  /// Hoisted per-pulse constants for program_batch; fixed at construction
  /// (depends only on params_/model_).
  device::PulseContext pulse_ctx_;
  std::uint64_t total_pulses_ = 0;
  double ambient_stress_ = 0.0;
  obs::Counter* seq_counter_ = nullptr;
  obs::Counter* batch_counter_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  /// Engaged only by configure_nonideality with a nonzero config.
  std::optional<NonidealityConfig> nonideal_;
  std::uint64_t nonideality_seed_ = 0;
  std::unique_ptr<FaultMap> faults_;
  Rng write_rng_{0};
  mutable Rng read_rng_{0};
};

}  // namespace xbarlife::xbar
