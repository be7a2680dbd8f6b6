// Behavioural memristor device model.
//
// A device owns its programmed resistance and its irreversible aging state.
// Programming clamps the target into the *aged* window and charges one
// pulse of stress, with the stress increment proportional to the Arrhenius
// temperature factor and the programming current (see aging/aging_model.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "aging/aging_model.hpp"

namespace xbarlife::device {

struct DeviceParams {
  double r_min_fresh = 1.0e4;    ///< ohms, low-resistance state bound
  double r_max_fresh = 1.0e5;    ///< ohms, high-resistance state bound
  std::size_t levels = 16;       ///< quantized resistance levels (fresh)
  double v_prog = 2.0;           ///< programming pulse amplitude (V)
  double t_pulse_s = 100e-9;     ///< programming pulse width (s)
  double temperature_k = 300.0;  ///< operating/junction temperature (K)
  /// Compliance limit of the programming driver: the select transistor
  /// caps the pulse current regardless of how conductive the cell is.
  double compliance_current_a = 3e-4;

  /// Upper bound on `levels`, far above any multi-level cell (the
  /// shipped configs use 8 and 16): per-cell aging statistics walk every
  /// level, so an unbounded count from the wire would pin a worker.
  static constexpr std::size_t kMaxLevels = 1u << 16;

  double g_min() const { return 1.0 / r_max_fresh; }
  double g_max() const { return 1.0 / r_min_fresh; }
  void validate() const;
};

/// Pulse constants hoisted out of the per-pulse programming math for
/// batched execution. Everything here depends only on (DeviceParams,
/// AgingModel), both fixed per crossbar, so one context serves an entire
/// batch. Memristor::program_with(ctx, ...) evaluates the exact same
/// floating-point expressions as Memristor::program() — same operations,
/// same association order — so batched and per-cell programming produce
/// bit-identical state; the batch merely skips recomputing these
/// invariants (and the Arrhenius exp hiding inside stress_increment) on
/// every pulse.
struct PulseContext {
  double r_fresh_min = 0.0;
  double r_fresh_max = 0.0;
  double v_prog = 0.0;
  double compliance_current_a = 0.0;
  double a_f = 0.0;
  double m_f = 0.0;
  double a_g = 0.0;
  double m_g = 0.0;
  double r_floor = 0.0;
  double i_ref = 0.0;
  double alpha = 1.0;
  /// t_pulse_s * arrhenius(T): the current-independent stress prefactor.
  /// stress_increment computes t_pulse * arr * cf left-associatively, so
  /// multiplying the hoisted product by cf reproduces it bit-exactly.
  double stress_scale = 0.0;
  /// alpha == 1.0: pow(x, 1.0) == x exactly (C Annex F), skip the pow.
  bool unit_alpha = false;
  /// m_f == m_g: one pow(s, m) serves both window bounds.
  bool shared_window_exponent = false;
};

/// Builds the hoisted context for one (params, model) pair.
PulseContext make_pulse_context(const DeviceParams& params,
                                const aging::AgingModel& model);

/// The Eq. 6/7 aged window at effective stress `s` (>= 0): the exact
/// expressions of AgingModel::aged_r_max / aged_r_min, with one pow when
/// the two exponents match. Every hot per-cell window (batched pulses,
/// drift, the aging statistics pass) comes from here, so they stay
/// bit-identical to the checked AgingModel path.
inline aging::AgedWindow aged_window_of(const PulseContext& ctx, double s) {
  const double pf = std::pow(s, ctx.m_f);
  const double pg = ctx.shared_window_exponent ? pf : std::pow(s, ctx.m_g);
  aging::AgedWindow w;
  w.r_min = std::max(ctx.r_floor, ctx.r_fresh_min - ctx.a_g * pg);
  w.r_max = std::max(ctx.r_floor, ctx.r_fresh_max - ctx.a_f * pf);
  return w;
}

class Memristor {
 public:
  /// `params` and `model` must outlive the device; one shared instance per
  /// crossbar keeps the per-cell footprint at a few doubles and a counter.
  /// `ambient_stress`, when non-null, points to an array-wide shared
  /// stress pool (thermal crosstalk) the owning crossbar maintains; the
  /// device's effective stress is its own plus the ambient share.
  Memristor(const DeviceParams* params, const aging::AgingModel* model,
            const double* ambient_stress = nullptr);

  /// Programmed resistance (ohms). Devices power up at r_max_fresh (HRS).
  double resistance() const { return resistance_; }
  double conductance() const { return 1.0 / resistance_; }

  /// Stress accumulated by this device's own pulses (s).
  double own_stress() const { return stress_; }
  /// Effective stress: own pulses plus the shared ambient (thermal) pool,
  /// minus the share of that pool this device's own pulses exported —
  /// a pulse's local heating is already inside `own_stress`, so counting
  /// its crosstalk share again would double-charge the originating cell.
  double stress() const {
    return stress_ + (ambient_stress_ != nullptr
                          ? *ambient_stress_ - ambient_self_share_
                          : 0.0);
  }
  std::uint64_t pulse_count() const { return pulses_; }

  /// Current aged window of this device.
  aging::AgedWindow aged_window() const;

  /// Usable fresh levels remaining at the current stress.
  std::size_t usable_levels() const;

  /// Programs the device toward `target_r` ohms. The achieved resistance is
  /// the target clamped into the aged window *before* this pulse's damage.
  /// Accrues one pulse of stress with I = v_prog / achieved_r. Returns the
  /// achieved resistance, also recording the stress increment so callers
  /// (the tracker hook) can mirror it.
  double program(double target_r);

  /// program() with the per-pulse invariants precomputed in `ctx` (which
  /// must have been built from this device's params/model pair). Evaluates
  /// the identical floating-point expressions, so the resulting device
  /// state is bit-identical to program(); batched executors use this to
  /// amortize the transcendental setup across a pulse run.
  double program_with(const PulseContext& ctx, double target_r);

  /// Stress increment charged by the most recent program() call.
  double last_stress_increment() const { return last_increment_; }

  /// Called by the owning crossbar when it adds `share` of this device's
  /// pulse stress to the shared ambient pool; stress() subtracts the
  /// running total so the originating cell never sees its own crosstalk.
  void exclude_ambient_self_share(double share) {
    ambient_self_share_ += share;
  }

  /// Recoverable conductance drift (read/retention disturbance, [8] in the
  /// paper): moves the stored resistance without a programming pulse and
  /// without aging. Clamped into the current aged window.
  void drift_to(double r);

  /// drift_to() with the window constants taken from `ctx` (built from
  /// this device's params/model pair); bit-identical state.
  void drift_to(const PulseContext& ctx, double r);

  /// Simulator-only: pins the stored resistance without a pulse and without
  /// the aged-window clamp. Used by the fault-injection layer to hold a
  /// manufacture-stuck cell at its defect value (a broken device sits
  /// outside the behavioural switching window by definition).
  void force_resistance(double r);

  /// Reads the cell as a conductance under a small read voltage; reading
  /// does not age the device (the paper distinguishes aging from read
  /// drift, which is recoverable and out of scope here).
  double read_conductance() const { return conductance(); }

  /// Own contribution exported to the shared ambient pool so far (the
  /// running total stress() subtracts). Exposed for checkpointing.
  double ambient_self_share() const { return ambient_self_share_; }

  /// Checkpoint restore: pins the complete mutable device state. The
  /// params/model/ambient wiring is reconstructed by the owning crossbar,
  /// not serialized.
  void restore_state(double resistance, double stress, double last_increment,
                     double ambient_self_share, std::uint64_t pulses) {
    resistance_ = resistance;
    stress_ = stress;
    last_increment_ = last_increment;
    ambient_self_share_ = ambient_self_share;
    pulses_ = pulses;
  }

 private:
  const DeviceParams* params_;
  const aging::AgingModel* model_;
  const double* ambient_stress_;
  double resistance_;
  double stress_ = 0.0;
  double last_increment_ = 0.0;
  double ambient_self_share_ = 0.0;  ///< own contribution to the pool
  std::uint64_t pulses_ = 0;
};

}  // namespace xbarlife::device
