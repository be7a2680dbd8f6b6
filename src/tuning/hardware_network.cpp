#include "tuning/hardware_network.hpp"

#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife::tuning {

void HardwareFaultConfig::validate() const {
  nonideal.validate();
}

HardwareNetwork::HardwareNetwork(nn::Network& net,
                                 const device::DeviceParams& dev,
                                 const aging::AgingParams& aging,
                                 const HardwareFaultConfig& faults,
                                 const xbar::ProgramExecutor& executor)
    : net_(&net),
      executor_(&executor),
      dev_(dev),
      aging_(aging),
      faults_(faults) {
  dev_.validate();
  aging_.validate();
  faults_.validate();
  // One seed stream per layer so adding a layer does not reshuffle the
  // owner keys and fault maps of the others.
  Rng fault_root(faults_.fault_seed);
  std::size_t layer_index = 0;
  for (const nn::MappableWeight& mw : net.mappable_weights()) {
    XB_CHECK(mw.value->shape().rank() == 2,
             "mappable weight must be a matrix: " + mw.name);
    DeployedLayer layer;
    layer.weight_index = mw.index;
    layer.name = mw.name;
    layer.kind = mw.layer_kind;
    layer.logical_rows = mw.value->shape()[0];
    const std::size_t physical_rows =
        layer.logical_rows + (faults_.active() ? faults_.spare_rows : 0);
    layer.xbar = std::make_unique<xbar::Crossbar>(
        physical_rows, mw.value->shape()[1], dev_, aging_);
    const std::uint64_t layer_seed = fault_root.fork(layer_index)();
    layer.xbar->set_owner_key(layer_seed);
    if (faults_.nonideal.any()) {
      layer.xbar->configure_nonideality(faults_.nonideal, layer_seed);
    }
    layer.stuck.assign(physical_rows * mw.value->shape()[1], 0);
    layer.pinned_g.assign(physical_rows * mw.value->shape()[1], 0.0f);
    layers_.push_back(std::move(layer));
    ++layer_index;
  }
  XB_CHECK(!layers_.empty(), "network has no mappable weights");
  capture_targets();
}

DeployedLayer& HardwareNetwork::layer(std::size_t i) {
  XB_CHECK(i < layers_.size(), "deployed layer index out of range");
  return layers_[i];
}

const DeployedLayer& HardwareNetwork::layer(std::size_t i) const {
  XB_CHECK(i < layers_.size(), "deployed layer index out of range");
  return layers_[i];
}

void HardwareNetwork::attach_metrics(obs::Registry& registry) {
  obs::Counter& pulses = registry.counter("aging.pulses");
  obs::Counter& traced = registry.counter("aging.traced_pulses");
  obs::Counter& sequences = registry.counter("executor.sequences");
  obs::Counter& batches = registry.counter("executor.column_batches");
  for (DeployedLayer& layer : layers_) {
    layer.xbar->attach_pulse_counters(&pulses, &traced);
    layer.xbar->attach_executor_counters(&sequences, &batches);
    layer.xbar->attach_metrics(&registry);
  }
}

void HardwareNetwork::attach_profiler(obs::Profiler* profiler) {
  for (DeployedLayer& layer : layers_) {
    layer.xbar->attach_profiler(profiler);
  }
}

void HardwareNetwork::capture_targets() {
  targets_ = net_->save_mappable_weights();
}

double HardwareNetwork::aware_upper_bound(std::size_t i, std::size_t levels,
                                          const NetworkEvaluator& evaluate,
                                          double keep_threshold,
                                          double switch_margin) {
  const DeployedLayer& layer = layers_[i];
  Tensor& value = *net_->mappable_weights()[i].value;
  // Score candidates by loading the layer's predicted effective weights
  // into the evaluation engine.
  auto scorer = [&](const Tensor& predicted) {
    Tensor saved = value;
    value = predicted;
    const double score = evaluate();
    value = saved;
    return score;
  };
  // The currently programmed range (if any) competes as the incumbent
  // and wins near-ties, since switching rewrites the whole array.
  const mapping::ResistanceRange* incumbent =
      layer.plan != nullptr ? &layer.plan->resistance_range() : nullptr;
  // Candidate bounds come from the 1-of-9 trace; candidate *scoring*
  // uses the simulated per-cell windows, as the paper's TF simulation
  // does when it picks the accuracy-argmax. Logical row indices go
  // through the layer's permutation.
  auto true_windows = [&layer](std::size_t r, std::size_t c) {
    return layer.xbar->cell(layer.physical_row(r), c).aged_window();
  };
  return mapping::select_common_range(
             layer.xbar->tracker(), layer.xbar->aging_model(),
             dev_.r_min_fresh, dev_.r_max_fresh, targets_[i], levels, scorer,
             incumbent, keep_threshold, switch_margin, 8, true_windows)
      .selected.r_hi;
}

std::vector<mapping::MappingReport> HardwareNetwork::deploy(
    MappingPolicy policy, std::size_t levels,
    const NetworkEvaluator& evaluate, double keep_threshold,
    double switch_margin, AwareShadow* shadow) {
  XB_CHECK(policy == MappingPolicy::kFresh || evaluate != nullptr,
           "aging-aware deployment needs a network evaluator");
  XB_CHECK(shadow == nullptr ||
               (policy == MappingPolicy::kFresh && evaluate != nullptr),
           "a shadow selection needs a fresh deployment and an evaluator");
  std::vector<mapping::MappingReport> reports;
  XB_ASSERT(net_->mappable_weights().size() == layers_.size(),
            "network mappable-weight count changed after deployment");

  for (std::size_t i = 0; i < layers_.size(); ++i) {
    DeployedLayer& layer = layers_[i];
    const mapping::WeightRange wr = mapping::weight_range_of(targets_[i]);

    const mapping::ResistanceRange fresh{dev_.r_min_fresh,
                                         dev_.r_max_fresh};
    double upper_cut = fresh.r_hi;
    if (policy == MappingPolicy::kAgingAware) {
      upper_cut = aware_upper_bound(i, levels, evaluate, keep_threshold,
                                    switch_margin);
    } else if (shadow != nullptr && !shadow->differs) {
      const double aware = aware_upper_bound(i, levels, evaluate,
                                             keep_threshold, switch_margin);
      if (aware != fresh.r_hi) {
        *shadow = AwareShadow{true, i, aware};
      }
    }

    auto new_plan =
        std::make_unique<mapping::MappingPlan>(wr, fresh, levels, upper_cut);
    // A range change moves every target: give previously stuck cells one
    // retry against the new targets.
    const bool range_changed =
        layer.plan == nullptr ||
        layer.plan->resistance_range().r_hi !=
            new_plan->resistance_range().r_hi;
    if (range_changed) {
      std::fill(layer.stuck.begin(), layer.stuck.end(), 0);
      std::fill(layer.pinned_g.begin(), layer.pinned_g.end(), 0.0f);
    }
    layer.plan = std::move(new_plan);
    // Write-verify mapping: cells already holding their target (within
    // half a conductance step) are not pulsed, and cells whose window no
    // longer covers the target are blacklisted after one failed retry.
    layer.last_report = program_layer(i);
    reports.push_back(layer.last_report);
  }
  sync_network_to_hardware();
  return reports;
}

Tensor HardwareNetwork::physical_targets(std::size_t i) const {
  const DeployedLayer& layer = layers_[i];
  const Tensor& logical = targets_[i];
  const std::size_t cols = logical.shape()[1];
  Tensor physical(Shape{layer.xbar->rows(), cols});
  for (std::size_t r = 0; r < layer.logical_rows; ++r) {
    const std::size_t pr = layer.physical_row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      physical.at(pr, c) = logical.at(r, c);
    }
  }
  return physical;
}

std::vector<std::uint8_t> HardwareNetwork::row_mask(std::size_t i) const {
  const DeployedLayer& layer = layers_[i];
  if (layer.row_perm.empty() &&
      layer.xbar->rows() == layer.logical_rows) {
    return {};  // Identity mapping, no spares: every row is active.
  }
  std::vector<std::uint8_t> mask(layer.xbar->rows(), 0);
  for (std::size_t r = 0; r < layer.logical_rows; ++r) {
    mask[layer.physical_row(r)] = 1;
  }
  return mask;
}

mapping::MappingReport HardwareNetwork::program_layer(std::size_t i) {
  DeployedLayer& layer = layers_[i];
  XB_CHECK(layer.plan != nullptr,
           "program before first deploy: " + layer.name);
  const std::vector<std::uint8_t> mask = row_mask(i);
  if (mask.empty()) {
    // Identity fast path: byte-for-byte the pre-resilience behaviour.
    layer.last_report = mapping::program_weights(
        *layer.xbar, targets_[i], *layer.plan, /*skip_unchanged=*/true,
        &layer.stuck, &layer.pinned_g, nullptr, executor_);
  } else {
    const Tensor physical = physical_targets(i);
    layer.last_report = mapping::program_weights(
        *layer.xbar, physical, *layer.plan, /*skip_unchanged=*/true,
        &layer.stuck, &layer.pinned_g, &mask, executor_);
  }
  return layer.last_report;
}

void HardwareNetwork::sync_network_to_hardware() {
  auto mappable = net_->mappable_weights();
  XB_ASSERT(mappable.size() == layers_.size(),
            "network mappable-weight count changed after deployment");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const DeployedLayer& layer = layers_[i];
    XB_CHECK(layer.plan != nullptr,
             "sync before first deploy: " + layer.name);
    const xbar::Crossbar& xb = *layer.xbar;
    const mapping::MappingPlan& plan = *layer.plan;
    const std::size_t cols = xb.cols();
    Tensor& value = *mappable[i].value;
    XB_CHECK(value.shape() == Shape({layer.logical_rows, cols}),
             "mappable weight shape does not match its crossbar: " +
                 layer.name);
    const std::span<float> eff = value.flat();
    const std::span<const device::Memristor> cells = xb.cells();
    for (std::size_t r = 0; r < layer.logical_rows; ++r) {
      const std::size_t pr = layer.physical_row(r);
      float* out = eff.data() + r * cols;
      if (xb.nonideal()) {
        // Read noise draws from one ordered stream: keep the
        // row-major read order.
        for (std::size_t c = 0; c < cols; ++c) {
          out[c] = static_cast<float>(
              plan.weight_of_resistance(xb.read_resistance(pr, c)));
        }
      } else {
        const device::Memristor* row = cells.data() + pr * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          out[c] = static_cast<float>(
              plan.weight_of_resistance(row[c].resistance()));
        }
      }
    }
  }
}

mapping::MappingReport HardwareNetwork::retry_clamped_cells(std::size_t i) {
  DeployedLayer& l = layer(i);
  for (std::size_t idx = 0; idx < l.stuck.size(); ++idx) {
    if (l.stuck[idx] == mapping::kCellClamped) {
      l.stuck[idx] = mapping::kCellHealthy;
      l.pinned_g[idx] = 0.0f;
    }
  }
  return program_layer(i);
}

mapping::MappingReport HardwareNetwork::reprogram_targets(std::size_t i) {
  (void)layer(i);
  return program_layer(i);
}

void HardwareNetwork::set_row_permutation(std::size_t i,
                                          std::vector<std::size_t> perm) {
  DeployedLayer& layer = this->layer(i);
  if (!perm.empty()) {
    XB_CHECK(perm.size() == layer.logical_rows,
             "row permutation must cover every logical row");
    std::vector<std::uint8_t> used(layer.xbar->rows(), 0);
    for (const std::size_t pr : perm) {
      XB_CHECK(pr < layer.xbar->rows(),
               "row permutation entry out of physical range");
      XB_CHECK(used[pr] == 0, "row permutation must be injective");
      used[pr] = 1;
    }
  }
  layer.row_perm = std::move(perm);
  // Every logical row may now face different physical cells: clamped
  // verdicts are stale (dead cells stay retired — their windows are
  // collapsed regardless of which logical row they serve).
  for (std::size_t idx = 0; idx < layer.stuck.size(); ++idx) {
    if (layer.stuck[idx] == mapping::kCellClamped) {
      layer.stuck[idx] = mapping::kCellHealthy;
      layer.pinned_g[idx] = 0.0f;
    }
  }
}

LayerFaultCounts HardwareNetwork::fault_counts(std::size_t i) const {
  const DeployedLayer& l = layer(i);
  LayerFaultCounts counts;
  const std::size_t cols = l.xbar->cols();
  counts.cells = l.logical_rows * cols;
  const xbar::FaultMap* map = l.xbar->fault_map();
  for (std::size_t r = 0; r < l.logical_rows; ++r) {
    const std::size_t pr = l.physical_row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      if (map != nullptr &&
          map->at(pr, c) != xbar::FaultMap::Fault::kNone) {
        ++counts.manufacture;
      }
      const std::uint8_t state = l.stuck[pr * cols + c];
      counts.clamped += state == mapping::kCellClamped;
      counts.dead += state == mapping::kCellDead;
    }
  }
  return counts;
}

std::vector<nn::QuantSpec> HardwareNetwork::quant_specs() const {
  std::vector<nn::QuantSpec> specs;
  specs.reserve(layers_.size());
  for (const DeployedLayer& layer : layers_) {
    nn::QuantSpec spec;
    if (layer.plan != nullptr) {
      // A fully-aged array can report < 2 usable levels; the digital
      // grid needs at least a sign bit to stay well-formed.
      spec.levels = std::max<std::size_t>(2, layer.plan->quantizer().levels());
      const mapping::WeightRange& wr = layer.plan->map().weight_range();
      spec.clamp_lo = static_cast<float>(wr.w_min);
      spec.clamp_hi = static_cast<float>(wr.w_max);
    }
    specs.push_back(spec);
  }
  return specs;
}

std::vector<xbar::CrossbarAgingStats> HardwareNetwork::aging_stats() const {
  std::vector<xbar::CrossbarAgingStats> stats;
  stats.reserve(layers_.size());
  for (const DeployedLayer& layer : layers_) {
    stats.push_back(layer.xbar->aging_stats());
  }
  return stats;
}

std::uint64_t HardwareNetwork::total_pulses() const {
  std::uint64_t total = 0;
  for (const DeployedLayer& layer : layers_) {
    total += layer.xbar->total_pulses();
  }
  return total;
}

namespace {

/// A count-prefixed run of u8/f32 values travels as one raw block (the
/// state format is the native little-endian layout).
template <class T>
void write_run(persist::StateWriter& w, std::span<const T> v) {
  w.u64(v.size());
  if (!v.empty()) {
    std::memcpy(w.extend(v.size_bytes()), v.data(), v.size_bytes());
  }
}

/// Reads a run written by write_run into `v`, whose size the snapshot
/// must match (`what` names the mismatch).
template <class T>
void read_run(persist::StateReader& r, std::span<T> v, const char* what) {
  XB_CHECK(r.u64() == v.size(), what);
  if (!v.empty()) {
    std::memcpy(v.data(), r.take(v.size_bytes()), v.size_bytes());
  }
}

}  // namespace

void HardwareNetwork::save_state(persist::StateWriter& w) const {
  w.u64(layers_.size());
  for (const DeployedLayer& l : layers_) {
    w.boolean(l.plan != nullptr);
    if (l.plan != nullptr) {
      // A plan is fully determined by (weight range, fresh grid, upper
      // cut); serializing those four numbers reconstructs it exactly.
      const mapping::WeightRange& wr = l.plan->map().weight_range();
      const mapping::ResistanceRange& fresh = l.plan->quantizer().fresh_range();
      w.f64(wr.w_min);
      w.f64(wr.w_max);
      w.f64(fresh.r_lo);
      w.f64(fresh.r_hi);
      w.u64(l.plan->quantizer().fresh_levels());
      w.f64(l.plan->resistance_range().r_hi);
    }
    w.u64(l.last_report.total_cells);
    w.u64(l.last_report.programmed_cells);
    w.u64(l.last_report.clamped_cells);
    w.f64(l.last_report.quantization_rmse);
    w.f64(l.last_report.mean_target_conductance);
    write_run<std::uint8_t>(w, l.stuck);
    write_run<float>(w, l.pinned_g);
    w.u64(l.row_perm.size());
    for (const std::size_t p : l.row_perm) {
      w.u64(p);
    }
    l.xbar->save_state(w);
  }
  w.u64(targets_.size());
  for (const Tensor& t : targets_) {
    write_run(w, t.flat());
  }
  std::vector<nn::ParamRef> params = net_->params();
  w.u64(params.size());
  for (const nn::ParamRef& p : params) {
    write_run(w, std::as_const(*p.value).flat());
  }
}

void HardwareNetwork::load_state(persist::StateReader& r) {
  XB_CHECK(r.u64() == layers_.size(),
           "hardware snapshot layer count does not match this network");
  for (DeployedLayer& l : layers_) {
    if (r.boolean()) {
      const double w_min = r.f64();
      const double w_max = r.f64();
      const double r_lo = r.f64();
      const double r_hi = r.f64();
      const std::uint64_t fresh_levels = r.u64();
      const double upper_cut = r.f64();
      l.plan = std::make_unique<mapping::MappingPlan>(
          mapping::WeightRange{w_min, w_max},
          mapping::ResistanceRange{r_lo, r_hi},
          static_cast<std::size_t>(fresh_levels), upper_cut);
    } else {
      l.plan.reset();
    }
    l.last_report.total_cells = r.u64();
    l.last_report.programmed_cells = r.u64();
    l.last_report.clamped_cells = r.u64();
    l.last_report.quantization_rmse = r.f64();
    l.last_report.mean_target_conductance = r.f64();
    read_run<std::uint8_t>(
        r, l.stuck, "bad-cell snapshot size does not match the crossbar");
    read_run<float>(r, l.pinned_g,
                    "pinned-cell snapshot size does not match the crossbar");
    l.row_perm.resize(r.array_count(8));
    XB_CHECK(l.row_perm.empty() || l.row_perm.size() == l.logical_rows,
             "row permutation snapshot does not cover the logical rows");
    for (std::size_t& p : l.row_perm) {
      p = r.u64();
      XB_CHECK(p < l.xbar->rows(),
               "row permutation snapshot entry out of physical range");
    }
    l.xbar->load_state(r);
  }
  const std::uint64_t n_targets = r.u64();
  XB_CHECK(n_targets == targets_.size(),
           "target snapshot count does not match this network");
  for (Tensor& t : targets_) {
    read_run(r, t.flat(),
             "tensor snapshot size does not match the network topology");
  }
  std::vector<nn::ParamRef> params = net_->params();
  XB_CHECK(r.u64() == params.size(),
           "parameter snapshot count does not match this network");
  for (nn::ParamRef& p : params) {
    read_run(r, p.value->flat(),
             "tensor snapshot size does not match the network topology");
  }
}

}  // namespace xbarlife::tuning
