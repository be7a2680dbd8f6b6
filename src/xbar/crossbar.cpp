#include "xbar/crossbar.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace xbarlife::xbar {

Crossbar::Crossbar(std::size_t rows, std::size_t cols,
                   const device::DeviceParams& params,
                   const aging::AgingParams& aging_params)
    : rows_(rows),
      cols_(cols),
      params_(params),
      model_(aging_params),
      tracker_(rows, cols) {
  XB_CHECK(rows > 0 && cols > 0, "crossbar must be non-empty");
  params_.validate();
  cells_.reserve(rows * cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    cells_.emplace_back(&params_, &model_, &ambient_stress_);
  }
  pulse_ctx_ = device::make_pulse_context(params_, model_);
}

const device::Memristor& Crossbar::cell(std::size_t r, std::size_t c) const {
  XB_CHECK(r < rows_ && c < cols_, "crossbar cell out of range");
  return cells_[r * cols_ + c];
}

device::Memristor& Crossbar::mutable_cell(std::size_t r, std::size_t c) {
  XB_CHECK(r < rows_ && c < cols_, "crossbar cell out of range");
  return cells_[r * cols_ + c];
}

void Crossbar::configure_nonideality(const NonidealityConfig& config,
                                     std::uint64_t seed) {
  config.validate();
  XB_CHECK(total_pulses_ == 0,
           "nonideality must be configured before the first pulse");
  if (!config.any()) {
    return;  // Ideal array: no RNG streams, no fault map, legacy behaviour.
  }
  nonideal_ = config;
  nonideality_seed_ = seed;
  Rng root(seed);
  const std::uint64_t map_seed = root();
  write_rng_ = root.fork(1);
  read_rng_ = root.fork(2);
  if (config.stuck_off_fraction > 0.0 || config.stuck_on_fraction > 0.0) {
    faults_ = std::make_unique<FaultMap>(rows_, cols_, config, map_seed);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        switch (faults_->at(r, c)) {
          case FaultMap::Fault::kNone:
            break;
          case FaultMap::Fault::kStuckOff:
            mutable_cell(r, c).force_resistance(params_.r_max_fresh);
            break;
          case FaultMap::Fault::kStuckOn:
            mutable_cell(r, c).force_resistance(params_.r_min_fresh);
            break;
        }
      }
    }
  }
}

double Crossbar::apply_post_pulse_nonideality(std::size_t r, std::size_t c,
                                              device::Memristor& m,
                                              double achieved) {
  const FaultMap::Fault fault =
      faults_ != nullptr ? faults_->at(r, c) : FaultMap::Fault::kNone;
  if (fault != FaultMap::Fault::kNone) {
    // The pulse still stressed the device, but a stuck cell cannot leave
    // its defect value — snap it back to the pin.
    achieved = fault == FaultMap::Fault::kStuckOff ? params_.r_max_fresh
                                                   : params_.r_min_fresh;
    m.force_resistance(achieved);
  } else if (nonideal_->write_noise_sigma > 0.0) {
    m.drift_to(pulse_ctx_, 1.0 / apply_write_noise(*nonideal_, 1.0 / achieved,
                                                   write_rng_));
    achieved = m.resistance();
  }
  return achieved;
}

double Crossbar::apply_pulse_percell(const ProgramOp& op) {
  XB_CHECK(op.kind == OpKind::kProgramPulse,
           "per-cell programming takes pulse ops only");
  device::Memristor& m = mutable_cell(op.row, op.col);
  double achieved = m.program(op.value);
  const double ds = m.last_stress_increment();
  // Thermal crosstalk: a share of every pulse's stress heats the whole
  // array (the Arrhenius common-mode component of Eqs. (6)-(7)). The
  // pulsing cell's own `ds` already contains its local heating, so its
  // exported share is excluded from its effective stress.
  const double ambient_share = model_.params().thermal_crosstalk * ds;
  ambient_stress_ += ambient_share;
  m.exclude_ambient_self_share(ambient_share);
  tracker_.record_pulse(op.row, op.col, ds, ambient_share);
  ++total_pulses_;
  if (nonideal_.has_value()) {
    achieved = apply_post_pulse_nonideality(op.row, op.col, m, achieved);
  }
  return achieved;
}

double Crossbar::program_cell(std::size_t r, std::size_t c,
                              double target_r) {
  return apply_pulse_percell(ProgramOp::pulse(r, c, target_r));
}

void Crossbar::program_batch(std::span<const ProgramOp> ops,
                             std::span<double> results) {
  XB_CHECK(ops.size() == results.size(),
           "program_batch needs one result slot per op");
  if (ops.empty()) {
    return;
  }
  // One counter flush per batch; the per-pulse loop below otherwise
  // performs the exact floating-point updates of apply_pulse_percell —
  // program_with inlines the identical expressions with the
  // transcendental invariants hoisted into pulse_ctx_, and the
  // ambient/tracker accumulations keep their per-pulse order (they are
  // order-dependent FP sums).
  // Validation runs as a pre-pass so the hot loop carries no branches on
  // op metadata: a malformed batch throws before any pulse lands (the
  // per-cell path throws mid-stream instead, but no caller observes
  // state after a programming error). SequenceBuilder already enforces
  // both invariants at build time, so executor-issued runs never throw.
  for (const ProgramOp& op : ops) {
    XB_CHECK(op.kind == OpKind::kProgramPulse,
             "program_batch takes pulse ops only");
    XB_CHECK(op.row < rows_ && op.col < cols_, "crossbar cell out of range");
  }
  const double crosstalk = model_.params().thermal_crosstalk;
  const bool nonideal = nonideal_.has_value();
  std::uint64_t traced = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ProgramOp& op = ops[i];
    device::Memristor& m = cells_[op.row * cols_ + op.col];
    double achieved = m.program_with(pulse_ctx_, op.value);
    const double ds = m.last_stress_increment();
    const double ambient_share = crosstalk * ds;
    // `x += 0.0` is a bit-exact identity (the accumulators start at +0.0
    // and only ever grow), so a zero share may skip the pool update.
    // This is a pure optimization, not a semantic branch: it breaks the
    // loop-carried store-to-load dependency through ambient_stress_ —
    // the next pulse's stress() reads the pool, so an unconditional
    // store serializes the whole batch on the window-pow *latency*
    // instead of its throughput.
    if (ambient_share != 0.0) {
      ambient_stress_ += ambient_share;
      m.exclude_ambient_self_share(ambient_share);
    }
    traced += tracker_.record_pulse_untallied(op.row, op.col, ds,
                                              ambient_share);
    if (nonideal) {
      achieved = apply_post_pulse_nonideality(op.row, op.col, m, achieved);
    }
    results[i] = achieved;
  }
  total_pulses_ += ops.size();
  tracker_.tally_pulses(ops.size(), traced);
}

void Crossbar::note_sequence_executed(const SequenceStats& stats) {
  if (seq_counter_ != nullptr) {
    seq_counter_->add();
  }
  if (batch_counter_ != nullptr && stats.batches > 0) {
    batch_counter_->add(stats.batches);
  }
}

void Crossbar::drift_cell(std::size_t r, std::size_t c, double new_r) {
  if (faults_ != nullptr && faults_->at(r, c) != FaultMap::Fault::kNone) {
    return;  // Stuck cells do not drift.
  }
  mutable_cell(r, c).drift_to(pulse_ctx_, new_r);
}

void Crossbar::drift_pass(Rng& rng, double sigma) {
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      device::Memristor& m = cells_[r * cols_ + c];
      const double factor = 1.0 + rng.gaussian(0.0, sigma);
      const double drifted = m.resistance() * std::max(factor, 0.05);
      if (faults_ == nullptr || faults_->at(r, c) == FaultMap::Fault::kNone) {
        m.drift_to(pulse_ctx_, drifted);
      }
    }
  }
}

double Crossbar::read_conductance(std::size_t r, std::size_t c) const {
  const device::Memristor& m = cell(r, c);
  if (!nonideal_.has_value()) {
    return m.conductance();
  }
  double g = apply_read_noise(*nonideal_, m.conductance(), read_rng_);
  g = ir_drop_conductance(*nonideal_, g, r, c);
  return g;
}

double Crossbar::read_resistance(std::size_t r, std::size_t c) const {
  if (!nonideal_.has_value()) {
    // Return the stored resistance directly: 1/(1/r) is not bit-exact.
    return cell(r, c).resistance();
  }
  return 1.0 / read_conductance(r, c);
}

namespace {

/// Partial reduction state for aging_stats; merged in chunk order so the
/// aggregate is identical at any thread count.
struct AgingPartial {
  double sum_stress = 0.0;
  double max_stress = 0.0;
  double sum_rmax = 0.0;
  double min_rmax = std::numeric_limits<double>::infinity();
  double sum_levels = 0.0;
  std::size_t min_levels = std::numeric_limits<std::size_t>::max();
  std::uint64_t pulses = 0;
};

}  // namespace

CrossbarAgingStats Crossbar::aging_stats() const {
  // The fresh level grid of AgingModel::usable_levels, built once per call:
  // it is non-decreasing, so the levels inside a window [r_min, r_max] are
  // one contiguous run found by two binary searches.
  std::vector<double> grid(params_.levels);
  const double step = (params_.r_max_fresh - params_.r_min_fresh) /
                      static_cast<double>(params_.levels - 1);
  for (std::size_t k = 0; k < grid.size(); ++k) {
    grid[k] = params_.r_min_fresh + static_cast<double>(k) * step;
  }
  const AgingPartial total = parallel_reduce(
      0, cells_.size(), 2048, AgingPartial{},
      [&](std::size_t begin, std::size_t end) {
        AgingPartial p;
        for (std::size_t i = begin; i < end; ++i) {
          const device::Memristor& cell = cells_[i];
          const double stress = cell.stress();
          p.sum_stress += stress;
          p.max_stress = std::max(p.max_stress, stress);
          const aging::AgedWindow w =
              device::aged_window_of(pulse_ctx_, stress);
          p.sum_rmax += w.r_max;
          p.min_rmax = std::min(p.min_rmax, w.r_max);
          const std::size_t levels =
              w.usable()
                  ? static_cast<std::size_t>(
                        std::upper_bound(grid.begin(), grid.end(), w.r_max) -
                        std::lower_bound(grid.begin(), grid.end(), w.r_min))
                  : 0;
          p.sum_levels += static_cast<double>(levels);
          p.min_levels = std::min(p.min_levels, levels);
          p.pulses += cell.pulse_count();
        }
        return p;
      },
      [](AgingPartial acc, AgingPartial p) {
        acc.sum_stress += p.sum_stress;
        acc.max_stress = std::max(acc.max_stress, p.max_stress);
        acc.sum_rmax += p.sum_rmax;
        acc.min_rmax = std::min(acc.min_rmax, p.min_rmax);
        acc.sum_levels += p.sum_levels;
        acc.min_levels = std::min(acc.min_levels, p.min_levels);
        acc.pulses += p.pulses;
        return acc;
      });

  CrossbarAgingStats s;
  s.max_stress = total.max_stress;
  s.min_aged_r_max = total.min_rmax;
  s.min_usable_levels = total.min_levels;
  s.total_pulses = total.pulses;
  const auto n = static_cast<double>(cells_.size());
  s.mean_stress = total.sum_stress / n;
  s.mean_aged_r_max = total.sum_rmax / n;
  s.mean_usable_levels = total.sum_levels / n;
  return s;
}

void Crossbar::save_state(persist::StateWriter& w) const {
  w.u64(rows_);
  w.u64(cols_);
  char* p = w.extend(cells_.size() * kCellStateBytes);
  for (const device::Memristor& cell : cells_) {
    p = persist::put(p, cell.resistance());
    p = persist::put(p, cell.own_stress());
    p = persist::put(p, cell.last_stress_increment());
    p = persist::put(p, cell.ambient_self_share());
    p = persist::put(p, cell.pulse_count());
  }
  tracker_.save_state(w);
  w.u64(total_pulses_);
  w.f64(ambient_stress_);
  persist::write_rng_state(w, write_rng_);
  persist::write_rng_state(w, read_rng_);
}

std::size_t Crossbar::state_bytes() const {
  return 2 * 8 + cells_.size() * kCellStateBytes + tracker_.state_bytes() +
         8 + 8 + 2 * persist::kRngStateBytes;
}

void Crossbar::load_state(persist::StateReader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  XB_CHECK(rows == rows_ && cols == cols_,
           "crossbar snapshot geometry does not match this array");
  const char* p = r.take(cells_.size() * kCellStateBytes);
  for (device::Memristor& cell : cells_) {
    double resistance = 0.0;
    double stress = 0.0;
    double last_increment = 0.0;
    double self_share = 0.0;
    std::uint64_t pulses = 0;
    p = persist::get(p, resistance);
    p = persist::get(p, stress);
    p = persist::get(p, last_increment);
    p = persist::get(p, self_share);
    p = persist::get(p, pulses);
    cell.restore_state(resistance, stress, last_increment, self_share,
                       pulses);
  }
  tracker_.load_state(r);
  total_pulses_ = r.u64();
  ambient_stress_ = r.f64();
  persist::read_rng_state(r, write_rng_);
  persist::read_rng_state(r, read_rng_);
}

}  // namespace xbarlife::xbar
