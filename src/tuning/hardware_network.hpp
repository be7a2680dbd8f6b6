// HardwareNetwork: a software-trained network deployed onto one memristor
// crossbar per mappable weight matrix.
//
// It is also the run context of its arrays: it holds the ProgramExecutor
// every mapping write, tuning step and rescue pulses through, and hands
// each crossbar its registry, profiler and owner key.
//
// The object keeps three views in sync:
//   * target weights  — what software training produced (the goal),
//   * crossbar state  — the programmed, quantized, aged reality,
//   * the nn::Network — used as the evaluation/gradient engine; its weights
//     are overwritten with the *effective* hardware weights so accuracy and
//     tuning gradients reflect what the analog array actually computes.
#pragma once

#include <memory>
#include <vector>

#include "mapping/mapper.hpp"
#include "mapping/range_select.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/executor.hpp"

namespace xbarlife::tuning {

/// How the common resistance range is chosen at (re)mapping time.
enum class MappingPolicy {
  kFresh,       ///< always map into the fresh window (aging-oblivious, "T")
  kAgingAware,  ///< Fig. 8 iterative range selection ("AT")
};

/// Hardware-fault model applied to every deployed crossbar: analog
/// non-idealities (manufacture stuck-at faults, write/read noise, IR
/// drop) plus optional spare rows held in reserve for the resilience
/// ladder's redundancy rung. An inactive config (`active()` false) makes
/// HardwareNetwork behave bit-identically to a build without it.
struct HardwareFaultConfig {
  xbar::NonidealityConfig nonideal;
  /// Extra physical rows per crossbar, unused until the resilience
  /// ladder's redundancy rung swaps a failing logical row onto one.
  std::size_t spare_rows = 0;
  /// Root seed for the per-layer fault maps and noise streams.
  std::uint64_t fault_seed = 0;

  bool active() const { return nonideal.any() || spare_rows > 0; }
  void validate() const;
};

/// Per-layer deployment state.
struct DeployedLayer {
  std::size_t weight_index = 0;          ///< index into mappable weights
  std::string name;
  nn::LayerKind kind = nn::LayerKind::kDense;
  std::unique_ptr<xbar::Crossbar> xbar;
  std::unique_ptr<mapping::MappingPlan> plan;  ///< null until first deploy
  mapping::MappingReport last_report;
  /// Write-verify bad-cell list (row-major, *physical* layout); cleared
  /// on range changes.
  std::vector<std::uint8_t> stuck;
  /// Best-achievable conductance pinned per clamped cell (row-major,
  /// physical layout).
  std::vector<float> pinned_g;
  /// Rows of the logical weight matrix; the crossbar may hold more
  /// (spare rows) when a HardwareFaultConfig is active.
  std::size_t logical_rows = 0;
  /// Logical-to-physical row permutation; empty means identity. Set by
  /// the resilience ladder's fault-masking / redundancy rungs.
  std::vector<std::size_t> row_perm;

  std::size_t physical_row(std::size_t logical) const {
    return row_perm.empty() ? logical : row_perm[logical];
  }
};

/// Bad-cell census of one deployed layer (physical cells under the
/// current logical-to-physical mapping).
struct LayerFaultCounts {
  std::size_t manufacture = 0;  ///< stuck-at cells from the fault map
  std::size_t clamped = 0;      ///< write-verify kCellClamped cells
  std::size_t dead = 0;         ///< write-verify kCellDead cells
  std::size_t cells = 0;        ///< active (mapped) cells counted
};

/// Scores a *full network* whose weights are currently loaded into the
/// evaluation engine; returns classification accuracy in [0, 1].
using NetworkEvaluator = std::function<double()>;

/// What a kFresh deploy finds when it also makes the aging-aware choice
/// (deploy's `shadow`): the first layer whose Fig. 8 selection, made on
/// the same state just before that layer is programmed, returns an upper
/// bound other than r_max_fresh. Up to that layer a kFresh and a
/// kAgingAware deployment program the same cells.
struct AwareShadow {
  bool differs = false;
  std::size_t layer = 0;     ///< first differing layer
  double aware_bound = 0.0;  ///< its aging-aware upper bound
};

class HardwareNetwork {
 public:
  /// Builds one crossbar per mappable weight of `net`. `net` must outlive
  /// this object and is mutated by sync_* calls. Layer i's stream
  /// Rng(faults.fault_seed).fork(i) gives its crossbar an owner key and,
  /// under an active fault model, the seed of its `faults.nonideal`
  /// fault map and noise streams; the model also adds
  /// `faults.spare_rows` physical rows. Every sequence runs through
  /// `executor`, which must outlive this object.
  HardwareNetwork(
      nn::Network& net, const device::DeviceParams& dev,
      const aging::AgingParams& aging, const HardwareFaultConfig& faults = {},
      const xbar::ProgramExecutor& executor = xbar::select_executor());

  const HardwareFaultConfig& fault_config() const { return faults_; }

  /// The backend every sequence on these arrays runs through.
  const xbar::ProgramExecutor& executor() const { return *executor_; }

  std::size_t layer_count() const { return layers_.size(); }
  DeployedLayer& layer(std::size_t i);
  const DeployedLayer& layer(std::size_t i) const;
  nn::Network& network() { return *net_; }

  const device::DeviceParams& device_params() const { return dev_; }

  /// Updates the software target weights from the network's current
  /// weights (call after software training / retraining).
  void capture_targets();

  /// The captured software target weights.
  const std::vector<Tensor>& targets() const { return targets_; }

  /// (Re)maps every layer onto its crossbar under `policy`.
  ///
  /// For kAgingAware the candidate ranges of each layer are scored with
  /// `evaluate`: the functor is called with this layer's *predicted*
  /// effective weights loaded into the network (other layers hold their
  /// current effective weights), exactly the paper's accuracy-driven
  /// iterative selection. `evaluate` may be null for kFresh.
  ///
  /// `keep_threshold` enables remap-on-demand for kAgingAware: a layer's
  /// current range is kept without a candidate scan while its predicted
  /// accuracy stays at or above the threshold (pass the tuning target
  /// minus a margin; values > 1 disable the shortcut).
  ///
  /// Afterwards the network holds the new effective weights.
  /// `switch_margin` is the predicted-accuracy gain a candidate range
  /// must deliver over the incumbent to justify rewriting the array.
  ///
  /// With a `shadow` (kFresh only, `evaluate` then required), each layer
  /// also makes the aging-aware selection, on the same state and with the
  /// same arguments, just before it is programmed, until one differs from
  /// the fresh range; the scoring changes nothing.
  std::vector<mapping::MappingReport> deploy(
      MappingPolicy policy, std::size_t levels,
      const NetworkEvaluator& evaluate = nullptr,
      double keep_threshold = 2.0, double switch_margin = 0.05,
      AwareShadow* shadow = nullptr);

  /// Writes the crossbars' current effective weights into the network.
  void sync_network_to_hardware();

  /// Resilience rung 1: gives every write-verify *clamped* (not dead)
  /// cell of layer `i` a fresh verdict and reprograms the layer's
  /// targets. Returns the new mapping report.
  mapping::MappingReport retry_clamped_cells(std::size_t i);

  /// Reprograms layer `i`'s targets under its current plan and row
  /// permutation (write-verify; unchanged cells are skipped).
  mapping::MappingReport reprogram_targets(std::size_t i);

  /// Installs a logical-to-physical row permutation on layer `i` (used by
  /// the fault-masking and spare-row rungs). `perm` must be injective
  /// with every entry < the crossbar's physical row count; an empty
  /// vector restores the identity. Clamped cells get a fresh verdict
  /// (dead cells stay retired); call reprogram_targets afterwards.
  void set_row_permutation(std::size_t i, std::vector<std::size_t> perm);

  /// Bad-cell census of layer `i`, restricted to its active cells.
  LayerFaultCounts fault_counts(std::size_t i) const;

  /// Attaches `registry` to every crossbar: pulse counters
  /// ("aging.pulses", "aging.traced_pulses") on the RepresentativeTracker,
  /// executor counters ("executor.sequences", "executor.column_batches")
  /// counting executed ProgramSequences and their per-column pulse
  /// batches, and the registry itself, which the remote executor's link
  /// and wire telemetry report into. The registry must outlive this
  /// object.
  void attach_metrics(obs::Registry& registry);

  /// Attaches a span profiler to every crossbar (null to detach): the
  /// remote executor nests worker-side span trees under per-sequence
  /// "executor.remote.execute" spans, one name for every endpoint. Must
  /// outlive this object.
  void attach_profiler(obs::Profiler* profiler);

  /// Ground-truth aging statistics per deployed layer.
  std::vector<xbar::CrossbarAgingStats> aging_stats() const;

  /// Quantization grids for nn::Network::infer(x, specs), one per
  /// mappable weight in layer order: level count and weight clamp window
  /// from each layer's current mapping plan (aged arrays report fewer
  /// levels, coarsening the int8 grid exactly as the analog array
  /// coarsens). Layers not yet deployed get the default 256-level spec.
  std::vector<nn::QuantSpec> quant_specs() const;

  /// Total programming pulses across all crossbars.
  std::uint64_t total_pulses() const;

  /// Serializes the complete deployment state: per-layer mapping plan,
  /// write-verify bad-cell lists, row permutations, crossbar array state,
  /// the captured target weights, and every network parameter (so the
  /// evaluation engine's effective weights and digital biases survive the
  /// round trip bit-identically). The network topology and fault config
  /// are reconstructed, not serialized — restore onto a HardwareNetwork
  /// built from the same config.
  void save_state(persist::StateWriter& w) const;
  void load_state(persist::StateReader& r);

 private:
  /// Layer `i`'s aging-aware common upper bound (Fig. 8) on the current
  /// state; the network's weights are restored after scoring.
  double aware_upper_bound(std::size_t i, std::size_t levels,
                           const NetworkEvaluator& evaluate,
                           double keep_threshold, double switch_margin);
  /// Physical (rows + spares) target tensor for layer `i` under its
  /// current row permutation; spare/unmapped rows hold zeros.
  Tensor physical_targets(std::size_t i) const;
  /// Physical row mask of layer `i`; empty when every row is active.
  std::vector<std::uint8_t> row_mask(std::size_t i) const;
  mapping::MappingReport program_layer(std::size_t i);

  nn::Network* net_;
  const xbar::ProgramExecutor* executor_;
  device::DeviceParams dev_;
  aging::AgingParams aging_;
  HardwareFaultConfig faults_;
  std::vector<DeployedLayer> layers_;
  std::vector<Tensor> targets_;
};

}  // namespace xbarlife::tuning
