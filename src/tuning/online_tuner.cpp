#include "tuning/online_tuner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "xbar/executor.hpp"
#include "xbar/program_sequence.hpp"

namespace xbarlife::tuning {

OnlineTuner::OnlineTuner(TuningConfig config) : config_(config) {
  XB_CHECK(config.max_iterations > 0, "need at least one iteration");
  XB_CHECK(config.target_accuracy > 0.0 && config.target_accuracy <= 1.0,
           "target accuracy must lie in (0, 1]");
  XB_CHECK(config.batch > 0, "tuning batch must be positive");
  XB_CHECK(config.min_grad_fraction >= 0.0,
           "min_grad_fraction must be >= 0");
  XB_CHECK(config.step_fraction > 0.0 && config.step_fraction <= 1.0,
           "step_fraction must lie in (0, 1]");
  XB_CHECK(config.eval_samples > 0, "need a non-empty eval slice");
}

std::uint64_t OnlineTuner::apply_sign_updates(HardwareNetwork& hw) {
  std::uint64_t pulses = 0;
  auto mappable = hw.network().mappable_weights();
  for (std::size_t li = 0; li < hw.layer_count(); ++li) {
    DeployedLayer& layer = hw.layer(li);
    XB_CHECK(layer.plan != nullptr, "tuning before deployment");
    xbar::Crossbar& xb = *layer.xbar;
    const std::size_t cols = xb.cols();
    XB_CHECK(mappable[li].grad->shape() == Shape({layer.logical_rows, cols}),
             "gradient shape does not match its crossbar: " + layer.name);
    const std::span<const float> grad = mappable[li].grad->flat();
    const mapping::ResistanceRange& range =
        layer.plan->quantizer().range();
    const double g_lo = range.g_min();
    const double g_hi = range.g_max();
    const double dg = config_.step_fraction * (g_hi - g_lo);

    // Layer-wise selectivity threshold.
    double mean_abs = 0.0;
    for (const float g : grad) {
      mean_abs += std::fabs(static_cast<double>(g));
    }
    mean_abs /= static_cast<double>(grad.size());
    const double threshold = config_.min_grad_fraction * mean_abs;

    // Emit this layer's update pulses as one column-batched command
    // stream: cells are visited in the canonical column-major order
    // (matching the sequence's per-column batching), each at most once,
    // so the readbacks below are independent of the later execution.
    // Gradients are logical (weight-matrix) coordinates; the crossbar may
    // hold spare rows and a remap permutation, so go through physical_row.
    // An ideal array's reads are its stored values; a nonideal one's go
    // through the periphery, whose read noise draws from one ordered
    // stream, in this visiting order.
    const std::span<const device::Memristor> cells = xb.cells();
    const bool ideal = !xb.nonideal();
    XB_CHECK(layer.stuck.size() == cells.size(),
             "bad-cell list does not match its crossbar: " + layer.name);
    xbar::SequenceBuilder builder(xb.rows(), cols);
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < layer.logical_rows; ++r) {
        const std::size_t pr = layer.physical_row(r);
        if (layer.stuck[pr * cols + c] != 0) {
          continue;  // write-verify blacklisted this cell
        }
        const auto g = static_cast<double>(grad[r * cols + c]);
        if (std::fabs(g) < threshold || g == 0.0) {
          continue;
        }
        // Weight must move along -grad; weight grows with conductance
        // (Eq. (4) is monotone increasing), so the pulse polarity is the
        // sign of -grad in conductance space.
        const double cond = ideal ? cells[pr * cols + c].conductance()
                                  : xb.read_conductance(pr, c);
        const double target =
            std::clamp(g < 0.0 ? cond + dg : cond - dg, g_lo, g_hi);
        if (std::fabs(target - cond) < 0.25 * dg) {
          continue;  // saturated at a range edge
        }
        builder.pulse(pr, c, 1.0 / target);
      }
    }
    if (!builder.empty()) {
      const xbar::ExecReport exec =
          hw.executor().execute(xb, builder.build());
      pulses += exec.stats.pulses;
    }
  }
  return pulses;
}

TuningResult OnlineTuner::tune(HardwareNetwork& hw,
                               const data::Dataset& tune_data,
                               const data::Dataset& eval_data,
                               const obs::Obs& obs) {
  XB_CHECK(tune_data.size() > 0 && eval_data.size() > 0,
           "tuning needs non-empty datasets");
  const obs::Span tuning_span(obs, "tuning.session");
  // The phases inside a session are profiler spans only: event traces and
  // metrics documents keep their session-level shape.
  obs::Obs phases;
  phases.profiler = obs.profiler;
  nn::Network& net = hw.network();
  const data::Dataset eval_slice =
      eval_data.head(config_.eval_samples);

  // Accuracy evaluations optionally run on the int8 path, with specs
  // re-derived per call: deploys/remaps between calls change the plans.
  const auto evaluate = [&]() {
    const obs::Span span(phases, "tuning.evaluate");
    if (config_.quantized_eval) {
      return net.evaluate_quantized(eval_slice.images, eval_slice.labels,
                                    hw.quant_specs());
    }
    return net.evaluate(eval_slice.images, eval_slice.labels);
  };
  const auto sync = [&]() {
    const obs::Span span(phases, "tuning.sync");
    hw.sync_network_to_hardware();
  };

  TuningResult result;
  sync();
  result.start_accuracy = evaluate();
  double acc = result.start_accuracy;
  double best_acc = acc;
  std::size_t since_improvement = 0;

  while (result.iterations < config_.max_iterations) {
    check_job_deadline();
    if (acc >= config_.target_accuracy) {
      result.converged = true;
      break;
    }
    if (config_.plateau_iterations > 0 &&
        since_improvement >= config_.plateau_iterations) {
      break;  // saturated: further pulses only age the array
    }
    ++result.iterations;
    // Rolling minibatch over the tuning set.
    if (cursor_ >= tune_data.size()) {
      cursor_ = 0;
    }
    const data::Batch batch =
        data::make_batch(tune_data, cursor_, config_.batch);
    cursor_ += batch.labels.size();

    std::uint64_t iter_pulses = 0;
    {
      const obs::Span span(phases, "tuning.sign_update");
      net.compute_gradients(batch.images, batch.labels);
      iter_pulses = apply_sign_updates(hw);
    }
    result.pulses += iter_pulses;
    sync();
    acc = evaluate();
    if (acc > best_acc + 1e-9) {
      best_acc = acc;
      since_improvement = 0;
    } else {
      ++since_improvement;
    }
    if (obs.trace_enabled()) {
      obs.event("tune_iter", {{"iteration", result.iterations},
                              {"accuracy", acc},
                              {"pulses", iter_pulses}});
    }
  }
  // A session that exits the loop still at target counts as converged
  // (covers the zero-iteration case where mapping alone suffices).
  if (acc >= config_.target_accuracy) {
    result.converged = true;
  }
  result.final_accuracy = acc;
  obs.count("tuning.sessions");
  obs.count("tuning.iterations", result.iterations);
  obs.count("tuning.pulses", result.pulses);
  if (result.converged) {
    obs.count("tuning.converged_sessions");
  }
  return result;
}

}  // namespace xbarlife::tuning
