// Online tuning simulator (Section II-C, Eq. (5) of the paper).
//
// Hardware cannot evaluate exact derivatives, so tuning applies fixed-
// amplitude programming pulses whose *polarity* follows sign(-dCost/dW):
// each selected cell moves one quantization level toward lower cost per
// iteration. Every level move is a programming pulse and therefore ages the
// device — the feedback loop that makes excessive tuning fatal.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "obs/obs.hpp"
#include "tuning/hardware_network.hpp"

namespace xbarlife::tuning {

struct TuningConfig {
  /// Hard cap per tuning session; the paper uses 150.
  std::size_t max_iterations = 150;
  /// Session succeeds when eval accuracy reaches this value.
  double target_accuracy = 0.85;
  /// Minibatch size for the gradient-sign computation.
  std::size_t batch = 32;
  /// Only cells with |grad| >= fraction * mean|grad| of their layer get a
  /// pulse; models the selective update of a realistic tuning controller
  /// and produces the spatially non-uniform aging the tracker must catch.
  double min_grad_fraction = 1.0;
  /// Conductance moved by one constant-amplitude tuning pulse, as a
  /// fraction of the mapped conductance span (the BSB-style scheme of
  /// [16]: pulse polarity from the gradient sign, fixed amplitude).
  /// Quantized levels constrain mapping-time write targets; tuning nudges
  /// the analog conductance in finer steps.
  double step_fraction = 0.02;
  /// Samples of the eval slice used for the convergence check.
  std::size_t eval_samples = 128;
  /// Abort the session early when the eval accuracy has not improved for
  /// this many consecutive iterations: pulsing a saturated array only
  /// ages it. 0 disables the plateau abort.
  std::size_t plateau_iterations = 20;
  /// Run the accuracy evaluations on the int8 quantized inference path
  /// (nn::Network::evaluate_quantized with specs derived from each
  /// layer's mapping plan). Gradient computation stays on the exact
  /// float path.
  bool quantized_eval = false;
};

struct TuningResult {
  std::size_t iterations = 0;      ///< gradient/program iterations executed
  bool converged = false;          ///< reached target accuracy
  double start_accuracy = 0.0;     ///< accuracy right after mapping
  double final_accuracy = 0.0;
  std::uint64_t pulses = 0;        ///< programming pulses spent tuning
};

class OnlineTuner {
 public:
  explicit OnlineTuner(TuningConfig config);

  const TuningConfig& config() const { return config_; }

  /// Runs one tuning session on `hw` using `tune_data` for gradients and
  /// `eval_data` for the convergence check. The hardware network must have
  /// been deployed. On return the network holds the final effective
  /// weights.
  ///
  /// When observability is attached, every iteration emits a `tune_iter`
  /// event and the session updates the `tuning.*` counters; with the
  /// default (disabled) handle instrumentation costs one branch per
  /// iteration.
  TuningResult tune(HardwareNetwork& hw, const data::Dataset& tune_data,
                    const data::Dataset& eval_data,
                    const obs::Obs& obs = {});

  /// Rolling tuning-batch cursor — the only cross-session tuner state.
  /// Exposed for checkpointing so a resumed lifetime run draws the same
  /// minibatches an uninterrupted one would.
  std::size_t cursor() const { return cursor_; }
  void set_cursor(std::size_t cursor) { cursor_ = cursor; }

  /// One sign-update pass over every deployed layer from the gradients
  /// the network currently holds (tune() computes them on a minibatch
  /// first); returns pulses spent.
  std::uint64_t apply_sign_updates(HardwareNetwork& hw);

 private:
  TuningConfig config_;
  std::size_t cursor_ = 0;  ///< rolling tuning-batch cursor
};

}  // namespace xbarlife::tuning
