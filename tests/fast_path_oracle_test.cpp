// Oracle tests for the lifetime loop's flat fast paths.
//
// Each fast path (the aging statistics pass, the drift pass, network sync,
// tuning sign updates, the SGD step, the regularizers, the fused training
// step and the convolution lowering, including the network's first-layer
// backward, and the sim executor's batched programming) is checked
// against a reference written with the checked public API only — the
// exhaustive-enumeration-plus-bound idiom with a bound of zero: every
// case must agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/model_registry.hpp"
#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/regularizer.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matmul.hpp"
#include "tuning/hardware_network.hpp"
#include "tuning/online_tuner.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/executor.hpp"
#include "xbar/program_sequence.hpp"

namespace xbarlife {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string array_state(const xbar::Crossbar& xb) {
  persist::StateWriter w;
  xb.save_state(w);
  return w.data();
}

/// Restores the pool size on scope exit.
class ThreadCount {
 public:
  explicit ThreadCount(std::size_t n) : saved_(parallel_threads()) {
    set_parallel_threads(n);
  }
  ~ThreadCount() { set_parallel_threads(saved_); }
  ThreadCount(const ThreadCount&) = delete;
  ThreadCount& operator=(const ThreadCount&) = delete;

 private:
  std::size_t saved_;
};

// --- aged window and aging statistics ---------------------------------------

TEST(FastPathOracle, AgedWindowHelperMatchesAgingModel) {
  // Stresses from zero and a denormal through well past window collapse.
  std::vector<double> stresses{0.0, std::numeric_limits<double>::denorm_min(),
                               1e-300};
  for (double s = 1e-15; s < 1e4; s *= 1.07) {
    stresses.push_back(s);
  }
  for (const double m_g : {0.85, 0.7}) {
    aging::AgingParams ap;
    ap.m_g = m_g;
    const aging::AgingModel model(ap);
    const device::DeviceParams dev;
    const device::PulseContext ctx = device::make_pulse_context(dev, model);
    for (const double s : stresses) {
      const aging::AgedWindow want =
          model.aged_window(dev.r_min_fresh, dev.r_max_fresh, s);
      const aging::AgedWindow got = device::aged_window_of(ctx, s);
      ASSERT_TRUE(same_bits(got.r_min, want.r_min)) << "m_g=" << m_g
                                                    << " s=" << s;
      ASSERT_TRUE(same_bits(got.r_max, want.r_max)) << "m_g=" << m_g
                                                    << " s=" << s;
    }
  }
}

/// The aging statistics recomputed cell by cell through the checked
/// Memristor accessors, reduced over the same chunks (the 2048-cell grain
/// Crossbar::aging_stats reduces at) in the same order.
xbar::CrossbarAgingStats reference_aging_stats(const xbar::Crossbar& xb) {
  struct Partial {
    double sum_stress = 0.0;
    double max_stress = 0.0;
    double sum_rmax = 0.0;
    double min_rmax = std::numeric_limits<double>::infinity();
    double sum_levels = 0.0;
    std::size_t min_levels = std::numeric_limits<std::size_t>::max();
    std::uint64_t pulses = 0;
  };
  const std::size_t n = xb.rows() * xb.cols();
  const std::size_t grain = 2048;
  Partial total;
  for (std::size_t begin = 0; begin < n; begin += grain) {
    Partial p;
    for (std::size_t i = begin; i < std::min(n, begin + grain); ++i) {
      const device::Memristor& cell = xb.cell(i / xb.cols(), i % xb.cols());
      p.sum_stress += cell.stress();
      p.max_stress = std::max(p.max_stress, cell.stress());
      p.sum_rmax += cell.aged_window().r_max;
      p.min_rmax = std::min(p.min_rmax, cell.aged_window().r_max);
      p.sum_levels += static_cast<double>(cell.usable_levels());
      p.min_levels = std::min(p.min_levels, cell.usable_levels());
      p.pulses += cell.pulse_count();
    }
    total.sum_stress += p.sum_stress;
    total.max_stress = std::max(total.max_stress, p.max_stress);
    total.sum_rmax += p.sum_rmax;
    total.min_rmax = std::min(total.min_rmax, p.min_rmax);
    total.sum_levels += p.sum_levels;
    total.min_levels = std::min(total.min_levels, p.min_levels);
    total.pulses += p.pulses;
  }
  xbar::CrossbarAgingStats s;
  s.mean_stress = total.sum_stress / static_cast<double>(n);
  s.max_stress = total.max_stress;
  s.mean_aged_r_max = total.sum_rmax / static_cast<double>(n);
  s.min_aged_r_max = total.min_rmax;
  s.mean_usable_levels = total.sum_levels / static_cast<double>(n);
  s.min_usable_levels = total.min_levels;
  s.total_pulses = total.pulses;
  return s;
}

void expect_same_stats(const xbar::CrossbarAgingStats& got,
                       const xbar::CrossbarAgingStats& want,
                       const std::string& label) {
  EXPECT_TRUE(same_bits(got.mean_stress, want.mean_stress)) << label;
  EXPECT_TRUE(same_bits(got.max_stress, want.max_stress)) << label;
  EXPECT_TRUE(same_bits(got.mean_aged_r_max, want.mean_aged_r_max)) << label;
  EXPECT_TRUE(same_bits(got.min_aged_r_max, want.min_aged_r_max)) << label;
  EXPECT_TRUE(same_bits(got.mean_usable_levels, want.mean_usable_levels))
      << label;
  EXPECT_EQ(got.min_usable_levels, want.min_usable_levels) << label;
  EXPECT_EQ(got.total_pulses, want.total_pulses) << label;
}

TEST(FastPathOracle, AgingStatsMatchCheckedAccessorsBitForBit) {
  // 48 x 64 = 3072 cells: two reduction chunks. Cell i takes i % 181 hot
  // pulses, so the array spans fresh cells through collapsed windows.
  const std::size_t rows = 48;
  const std::size_t cols = 64;
  std::size_t cases = 0;
  for (const double m_g : {0.85, 0.7}) {
    for (const double crosstalk : {0.0, 2e-4}) {
      for (const std::size_t levels : {std::size_t{2}, std::size_t{16}}) {
        device::DeviceParams dev;
        dev.levels = levels;
        aging::AgingParams ap;
        ap.m_g = m_g;
        ap.thermal_crosstalk = crosstalk;
        xbar::Crossbar xb(rows, cols, dev, ap);
        const std::string label = "m_g=" + std::to_string(m_g) +
                                  " crosstalk=" + std::to_string(crosstalk) +
                                  " levels=" + std::to_string(levels);
        std::size_t collapsed = 0;
        for (std::size_t i = 0; i < rows * cols; ++i) {
          const std::size_t r = i / cols;
          const std::size_t c = i % cols;
          for (std::size_t k = 0; k < i % 181; ++k) {
            xb.program_cell(r, c, dev.r_min_fresh);
          }
          collapsed += xb.cell(r, c).usable_levels() == 0;
        }
        ASSERT_GT(collapsed, 0u) << label << ": no window collapsed";
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const ThreadCount scope(threads);
          expect_same_stats(xb.aging_stats(), reference_aging_stats(xb),
                            label + " threads=" + std::to_string(threads));
          ++cases;
        }
        // A fresh array: every stress is exactly zero.
        xbar::Crossbar fresh(rows, cols, dev, ap);
        expect_same_stats(fresh.aging_stats(), reference_aging_stats(fresh),
                          label + " fresh");
      }
    }
  }
  EXPECT_EQ(cases, 16u);
}

// --- drift pass -----------------------------------------------------------

void age(xbar::Crossbar& xb) {
  Rng rng(11);
  for (std::size_t r = 0; r < xb.rows(); ++r) {
    for (std::size_t c = 0; c < xb.cols(); ++c) {
      const auto pulses = static_cast<std::size_t>(rng.uniform_int(0, 120));
      for (std::size_t k = 0; k < pulses; ++k) {
        xb.program_cell(r, c, rng.uniform(1.0e4, 1.0e5));
      }
    }
  }
}

TEST(FastPathOracle, DriftPassMatchesDriftCellLoop) {
  xbar::NonidealityConfig stuck;
  stuck.stuck_off_fraction = 0.05;
  stuck.stuck_on_fraction = 0.05;
  xbar::NonidealityConfig noisy;
  noisy.write_noise_sigma = 0.05;
  xbar::NonidealityConfig both = stuck;
  both.write_noise_sigma = 0.05;
  both.read_noise_sigma = 0.02;
  const std::map<std::string, xbar::NonidealityConfig> configs{
      {"ideal", {}}, {"stuck", stuck}, {"write-noise", noisy},
      {"stuck+noise", both}};
  for (const auto& [name, config] : configs) {
    for (const double sigma : {0.03, 0.9}) {
      xbar::Crossbar fast(12, 20, device::DeviceParams{},
                          aging::AgingParams{});
      xbar::Crossbar ref(12, 20, device::DeviceParams{},
                         aging::AgingParams{});
      fast.configure_nonideality(config, 5);
      ref.configure_nonideality(config, 5);
      age(fast);
      age(ref);
      ASSERT_EQ(array_state(fast), array_state(ref)) << name;
      Rng fast_rng(3);
      Rng ref_rng(3);
      for (int pass = 0; pass < 3; ++pass) {
        fast.drift_pass(fast_rng, sigma);
        for (std::size_t r = 0; r < ref.rows(); ++r) {
          for (std::size_t c = 0; c < ref.cols(); ++c) {
            const double factor = 1.0 + ref_rng.gaussian(0.0, sigma);
            ref.drift_cell(r, c,
                           ref.cell(r, c).resistance() *
                               std::max(factor, 0.05));
          }
        }
        EXPECT_EQ(array_state(fast), array_state(ref))
            << name << " sigma=" << sigma << " pass " << pass;
        EXPECT_EQ(fast_rng(), ref_rng()) << name << " pass " << pass;
        // The VMM cache must see the drifted cells.
        const std::vector<float> v(fast.rows(), 0.5f);
        std::vector<float> fast_i(fast.cols());
        std::vector<float> ref_i(ref.cols());
        fast.vmm(v, fast_i);
        ref.vmm(v, ref_i);
        EXPECT_EQ(fast_i, ref_i) << name << " pass " << pass;
      }
    }
  }
}

// --- network sync and sign updates ----------------------------------------

/// Effective weights the checked per-element path computes.
std::vector<Tensor> reference_sync(tuning::HardwareNetwork& hw) {
  std::vector<Tensor> out;
  for (std::size_t i = 0; i < hw.layer_count(); ++i) {
    const tuning::DeployedLayer& layer = hw.layer(i);
    Tensor eff(Shape{layer.logical_rows, layer.xbar->cols()});
    for (std::size_t r = 0; r < layer.logical_rows; ++r) {
      for (std::size_t c = 0; c < layer.xbar->cols(); ++c) {
        eff.at(r, c) = static_cast<float>(layer.plan->weight_of_resistance(
            layer.xbar->read_resistance(layer.physical_row(r), c)));
      }
    }
    out.push_back(std::move(eff));
  }
  return out;
}

/// The sign-update pass through checked accessors: Tensor::at gradients
/// and Crossbar::read_conductance readbacks in column-major order.
std::uint64_t reference_sign_updates(tuning::HardwareNetwork& hw,
                                     const tuning::TuningConfig& config) {
  std::uint64_t pulses = 0;
  auto mappable = hw.network().mappable_weights();
  for (std::size_t li = 0; li < hw.layer_count(); ++li) {
    tuning::DeployedLayer& layer = hw.layer(li);
    const Tensor& grad = *mappable[li].grad;
    const mapping::ResistanceRange& range = layer.plan->quantizer().range();
    const double g_lo = range.g_min();
    const double g_hi = range.g_max();
    const double dg = config.step_fraction * (g_hi - g_lo);
    double mean_abs = 0.0;
    for (std::size_t i = 0; i < grad.numel(); ++i) {
      mean_abs += std::fabs(static_cast<double>(grad[i]));
    }
    mean_abs /= static_cast<double>(grad.numel());
    const double threshold = config.min_grad_fraction * mean_abs;
    xbar::Crossbar& xb = *layer.xbar;
    xbar::SequenceBuilder builder(xb.rows(), xb.cols());
    for (std::size_t c = 0; c < xb.cols(); ++c) {
      for (std::size_t r = 0; r < layer.logical_rows; ++r) {
        const std::size_t pr = layer.physical_row(r);
        if (layer.stuck.at(pr * xb.cols() + c) != 0) {
          continue;
        }
        const auto g = static_cast<double>(grad.at(r, c));
        if (std::fabs(g) < threshold || g == 0.0) {
          continue;
        }
        const double cond = xb.read_conductance(pr, c);
        const double target =
            std::clamp(g < 0.0 ? cond + dg : cond - dg, g_lo, g_hi);
        if (std::fabs(target - cond) < 0.25 * dg) {
          continue;
        }
        builder.pulse(pr, c, 1.0 / target);
      }
    }
    if (!builder.empty()) {
      pulses += hw.executor().execute(xb, builder.build()).stats.pulses;
    }
  }
  return pulses;
}

/// One trained network deployed onto its arrays.
struct Deployed {
  nn::Network net;
  std::unique_ptr<tuning::HardwareNetwork> hw;

  explicit Deployed(const tuning::HardwareFaultConfig& faults)
      : net([] {
          Rng rng(21);
          return nn::make_mlp(12, {24}, 4, rng);
        }()) {
    hw = std::make_unique<tuning::HardwareNetwork>(
        net, device::DeviceParams{}, aging::AgingParams{}, faults);
    if (faults.spare_rows > 0) {
      // Serve logical rows from a shuffled set of physical rows.
      const std::size_t logical = hw->layer(0).logical_rows;
      std::vector<std::size_t> perm(logical);
      for (std::size_t r = 0; r < logical; ++r) {
        perm[r] = (r * 7 + 3) % (logical + faults.spare_rows);
      }
      hw->set_row_permutation(0, perm);
    }
    hw->deploy(tuning::MappingPolicy::kFresh, 16);
  }

  std::string state() const {
    persist::StateWriter w;
    hw->save_state(w);
    return w.data();
  }
};

void expect_same_weights(const std::vector<Tensor>& got,
                         const std::vector<Tensor>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].shape(), want[i].shape()) << label;
    for (std::size_t k = 0; k < got[i].numel(); ++k) {
      ASSERT_TRUE(same_bits(got[i][k], want[i][k]))
          << label << " layer " << i << " element " << k;
    }
  }
}

TEST(FastPathOracle, SyncAndSignUpdatesMatchCheckedPath) {
  tuning::HardwareFaultConfig read_noise;
  read_noise.nonideal.read_noise_sigma = 0.03;
  read_noise.fault_seed = 9;
  tuning::HardwareFaultConfig permuted = read_noise;
  permuted.spare_rows = 3;
  permuted.nonideal.stuck_off_fraction = 0.04;
  const std::map<std::string, tuning::HardwareFaultConfig> configs{
      {"ideal", {}}, {"read-noise", read_noise}, {"permuted", permuted}};
  const data::TrainTest data = data::make_blobs(4, 12, 40, 10, 0.3, 4);
  for (const auto& [name, faults] : configs) {
    Deployed fast(faults);
    Deployed ref(faults);
    ASSERT_EQ(fast.state(), ref.state()) << name;
    tuning::TuningConfig config;
    config.min_grad_fraction = 0.5;
    tuning::OnlineTuner tuner(config);
    for (std::size_t iter = 0; iter < 4; ++iter) {
      const data::Batch batch = data::make_batch(data.train, iter * 16, 16);
      fast.net.compute_gradients(batch.images, batch.labels);
      ref.net.compute_gradients(batch.images, batch.labels);
      const std::uint64_t fast_pulses = tuner.apply_sign_updates(*fast.hw);
      const std::uint64_t ref_pulses = reference_sign_updates(*ref.hw, config);
      EXPECT_EQ(fast_pulses, ref_pulses) << name << " iteration " << iter;
      EXPECT_GT(fast_pulses, 0u) << name << " iteration " << iter;
      EXPECT_EQ(fast.state(), ref.state()) << name << " iteration " << iter;

      fast.hw->sync_network_to_hardware();
      const std::vector<Tensor> want = reference_sync(*ref.hw);
      const std::vector<nn::MappableWeight> ref_weights =
          ref.net.mappable_weights();
      ASSERT_EQ(ref_weights.size(), want.size()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        *ref_weights[i].value = want[i];
      }
      expect_same_weights(fast.net.save_mappable_weights(), want,
                          name + " iteration " + std::to_string(iter));
      // Same read-noise stream positions and network parameters.
      EXPECT_EQ(fast.state(), ref.state()) << name << " iteration " << iter;
    }
  }
}

// --- training step --------------------------------------------------------

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  t.fill_gaussian(rng, 0.1f, 0.5f);
  return t;
}

void expect_same_tensor(const Tensor& got, const Tensor& want,
                        const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i])) << label << " element " << i;
  }
}

TEST(FastPathOracle, SgdStepMatchesScalarReference) {
  for (const double momentum : {0.0, 0.9}) {
    const nn::SgdConfig config{0.05, momentum};
    std::vector<Tensor> values{random_tensor(Shape{7, 13}, 1),
                               random_tensor(Shape{13}, 2)};
    std::vector<Tensor> grads{random_tensor(Shape{7, 13}, 3),
                              random_tensor(Shape{13}, 4)};
    std::vector<Tensor> ref_values = values;
    std::vector<Tensor> velocity{Tensor(Shape{7, 13}), Tensor(Shape{13})};
    std::vector<nn::ParamRef> params;
    for (std::size_t i = 0; i < values.size(); ++i) {
      nn::ParamRef p;
      p.value = &values[i];
      p.grad = &grads[i];
      params.push_back(p);
    }
    nn::SgdOptimizer opt(config);
    const auto lr = static_cast<float>(config.learning_rate);
    const auto mu = static_cast<float>(config.momentum);
    for (int step = 0; step < 5; ++step) {
      opt.step(params);
      for (std::size_t p = 0; p < values.size(); ++p) {
        for (std::size_t i = 0; i < velocity[p].numel(); ++i) {
          velocity[p][i] = mu * velocity[p][i] - lr * grads[p][i];
          ref_values[p][i] += velocity[p][i];
        }
        expect_same_tensor(values[p], ref_values[p],
                           "step " + std::to_string(step));
      }
      for (Tensor& g : grads) {
        g.scale_(-0.7f);
      }
    }
  }
}

TEST(FastPathOracle, SgdStepRejectsMismatchedGradient) {
  Tensor value(Shape{4, 4});
  Tensor grad(Shape{5});
  nn::ParamRef p;
  p.value = &value;
  p.grad = &grad;
  nn::SgdOptimizer opt({0.1, 0.9});
  EXPECT_THROW(opt.step({p}), InvalidArgument);
}

TEST(FastPathOracle, RegularizersMatchScalarReference) {
  const Tensor w = random_tensor(Shape{9, 11}, 5);
  const Tensor grad0 = random_tensor(Shape{9, 11}, 6);

  const nn::L2Regularizer l2(1e-3);
  Tensor grad = grad0;
  l2.add_gradient(w, 0, grad);
  Tensor want = grad0;
  const auto scale = static_cast<float>(2.0 * 1e-3);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    want[i] += scale * w[i];
  }
  expect_same_tensor(grad, want, "L2 gradient");

  nn::SkewedL2Regularizer skewed(4e-3, 1e-4, 0.8);
  for (const bool frozen : {false, true}) {
    if (frozen) {
      skewed.freeze_omega(0, 0.05);
    }
    double om = 0.05;
    if (!frozen) {
      RunningStats rs;
      for (std::size_t i = 0; i < w.numel(); ++i) {
        rs.add(static_cast<double>(w[i]));
      }
      om = 0.8 * rs.stddev();
    }
    const std::string label = frozen ? "frozen" : "live";
    EXPECT_TRUE(same_bits(skewed.omega(w, 0), om)) << label;

    double left = 0.0;
    double right = 0.0;
    for (std::size_t i = 0; i < w.numel(); ++i) {
      const double d = static_cast<double>(w[i]) - om;
      (d < 0.0 ? left : right) += d * d;
    }
    EXPECT_TRUE(same_bits(skewed.penalty(w, 0), 4e-3 * left + 1e-4 * right))
        << label;

    grad = grad0;
    skewed.add_gradient(w, 0, grad);
    want = grad0;
    const auto omf = static_cast<float>(om);
    const auto s1 = static_cast<float>(2.0 * 4e-3);
    const auto s2 = static_cast<float>(2.0 * 1e-4);
    for (std::size_t i = 0; i < w.numel(); ++i) {
      const float d = w[i] - omf;
      want[i] += (d < 0.0f ? s1 : s2) * d;
    }
    expect_same_tensor(grad, want, "skewed gradient " + label);
  }
}

// --- convolution lowering ----------------------------------------------------

/// One image as the (pixels, patch) row-layout patch matrix, written from
/// the definition (pure data movement, so any correct gather has these
/// bits).
Tensor row_patches(const float* image, const ConvGeometry& g) {
  const std::size_t ow = g.out_w();
  Tensor patches(Shape{g.out_h() * ow, g.patch_size()});
  for (std::size_t p = 0; p < patches.shape()[0]; ++p) {
    std::size_t k = 0;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        for (std::size_t kx = 0; kx < g.kernel; ++kx, ++k) {
          const auto iy = static_cast<long long>((p / ow) * g.stride + ky) -
                          static_cast<long long>(g.pad);
          const auto ix = static_cast<long long>((p % ow) * g.stride + kx) -
                          static_cast<long long>(g.pad);
          if (iy >= 0 && ix >= 0 && iy < static_cast<long long>(g.in_h) &&
              ix < static_cast<long long>(g.in_w)) {
            patches.at(p, k) =
                image[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                      static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
  return patches;
}

/// Scatters a (pixels, patch) gradient back onto one image gradient in
/// ascending pixel order.
void row_col2im(const Tensor& gpatches, const ConvGeometry& g, float* image) {
  const std::size_t ow = g.out_w();
  for (std::size_t p = 0; p < gpatches.shape()[0]; ++p) {
    std::size_t k = 0;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        for (std::size_t kx = 0; kx < g.kernel; ++kx, ++k) {
          const auto iy = static_cast<long long>((p / ow) * g.stride + ky) -
                          static_cast<long long>(g.pad);
          const auto ix = static_cast<long long>((p % ow) * g.stride + kx) -
                          static_cast<long long>(g.pad);
          if (iy >= 0 && ix >= 0 && iy < static_cast<long long>(g.in_h) &&
              ix < static_cast<long long>(g.in_w)) {
            image[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                  static_cast<std::size_t>(ix)] += gpatches.at(p, k);
          }
        }
      }
    }
  }
}

struct ConvResult {
  Tensor y;
  Tensor grad_input;
  Tensor weight_grad;
  Tensor bias_grad;
};

/// The row-layout composition: per sample im2col -> matmul -> transpose
/// to channel-major, then matmul_tn / matmul_nt / col2im, with weight and
/// bias partials added to the starting gradients in sample order.
ConvResult reference_conv(const ConvGeometry& g, const Tensor& w,
                          const Tensor& bias, const Tensor& x,
                          const Tensor& gy, const Tensor& weight_grad0,
                          const Tensor& bias_grad0) {
  const std::size_t batch = x.shape()[0];
  const std::size_t per_sample = x.shape()[1];
  const std::size_t pixels = g.out_h() * g.out_w();
  const std::size_t oc = w.shape()[1];
  ConvResult r{Tensor(Shape{batch, oc * pixels}),
               Tensor(Shape{batch, per_sample}), weight_grad0, bias_grad0};
  for (std::size_t b = 0; b < batch; ++b) {
    const Tensor patches = row_patches(x.data() + b * per_sample, g);
    const Tensor y = matmul(patches, w);
    Tensor gyb(Shape{pixels, oc});
    Tensor bg(Shape{oc});
    for (std::size_t p = 0; p < pixels; ++p) {
      for (std::size_t c = 0; c < oc; ++c) {
        r.y.at(b, c * pixels + p) = y.at(p, c) + bias[c];
        gyb.at(p, c) = gy.at(b, c * pixels + p);
        bg[c] += gyb.at(p, c);
      }
    }
    const Tensor wg = matmul_tn(patches, gyb);
    for (std::size_t i = 0; i < wg.numel(); ++i) {
      r.weight_grad[i] += wg[i];
    }
    for (std::size_t c = 0; c < oc; ++c) {
      r.bias_grad[c] += bg[c];
    }
    row_col2im(matmul_nt(gyb, w), g, r.grad_input.data() + b * per_sample);
  }
  return r;
}

/// Restores the active kernel variant on scope exit.
class KernelVariant {
 public:
  explicit KernelVariant(const std::string& name)
      : saved_(kernels::kernel_name()) {
    kernels::set_kernel(name);
  }
  ~KernelVariant() { kernels::set_kernel(saved_); }
  KernelVariant(const KernelVariant&) = delete;
  KernelVariant& operator=(const KernelVariant&) = delete;

 private:
  std::string saved_;
};

TEST(FastPathOracle, ConvMatchesRowLayoutComposition) {
  struct Case {
    ConvGeometry g;
    std::size_t out_channels;
  };
  const Case cases[] = {
      {{3, 16, 16, 5, 1, 0}, 6},   // LeNet-5 conv1
      {{6, 6, 6, 5, 1, 0}, 16},    // LeNet-5 conv2
      {{2, 8, 8, 3, 1, 1}, 5},     // padded
      {{3, 9, 9, 3, 2, 1}, 7},     // strided and padded
      {{2, 11, 11, 4, 3, 0}, 4},   // strided
      {{12, 7, 7, 5, 1, 2}, 9},    // patch 300 crosses the AVX2 kKc block
  };
  for (const std::string& variant : kernels::available()) {
    const KernelVariant kv(variant);
    for (const std::size_t threads : {1u, 4u}) {
      const ThreadCount tc(threads);
      for (const Case& cs : cases) {
        const ConvGeometry& g = cs.g;
        // 5 samples give conv2 (4 pixels) a partial 16-column panel that
        // straddles samples; 64 is the evaluation batch.
        for (const std::size_t batch : {1u, 3u, 5u, 16u, 64u}) {
          const std::string label =
              variant + " t" + std::to_string(threads) + " b" +
              std::to_string(batch) + " c" + std::to_string(g.in_channels) +
              " k" + std::to_string(g.kernel) + " s" +
              std::to_string(g.stride) + " p" + std::to_string(g.pad);
          Rng rng(g.patch_size() + batch);
          nn::Conv2D conv(g, cs.out_channels, rng, "conv");
          std::vector<nn::ParamRef> params = conv.params();
          *params[1].value = random_tensor(Shape{cs.out_channels}, 21);
          const Tensor weight_grad0 =
              random_tensor(params[0].grad->shape(), 22);
          const Tensor bias_grad0 = random_tensor(Shape{cs.out_channels}, 23);
          const Tensor x = random_tensor(
              Shape{batch, g.in_channels * g.in_h * g.in_w}, 24 + batch);
          const std::size_t out_features =
              cs.out_channels * g.out_h() * g.out_w();
          const Tensor gy = random_tensor(Shape{batch, out_features}, 25);
          const ConvResult want =
              reference_conv(g, *params[0].value, *params[1].value, x, gy,
                             weight_grad0, bias_grad0);

          *params[0].grad = weight_grad0;
          *params[1].grad = bias_grad0;
          expect_same_tensor(conv.forward(x), want.y, label + " y");
          expect_same_tensor(conv.backward(gy), want.grad_input,
                             label + " grad_input");
          expect_same_tensor(*params[0].grad, want.weight_grad,
                             label + " weight_grad");
          expect_same_tensor(*params[1].grad, want.bias_grad,
                             label + " bias_grad");

          *params[0].grad = weight_grad0;
          *params[1].grad = bias_grad0;
          conv.backward_params(gy);
          expect_same_tensor(*params[0].grad, want.weight_grad,
                             label + " backward_params weight_grad");
          expect_same_tensor(*params[1].grad, want.bias_grad,
                             label + " backward_params bias_grad");
        }
      }
    }
  }
}

TEST(FastPathOracle, ConvBatchSizeChangesMatchFreshLayer) {
  // The tuning loop evaluates 64-sample batches and trains on 16: one
  // layer run at 64 -> 16 -> 64 samples must give, pass by pass, the
  // bits of a fresh layer with the same parameters.
  const ConvGeometry geometries[] = {{3, 16, 16, 5, 1, 0},
                                     {6, 6, 6, 5, 1, 0}};
  for (const std::string& variant : kernels::available()) {
    const KernelVariant kv(variant);
    for (const ConvGeometry& g : geometries) {
      const std::size_t out_channels = g.in_channels == 3 ? 6 : 16;
      const std::size_t features = g.in_channels * g.in_h * g.in_w;
      const std::size_t out_features = out_channels * g.out_h() * g.out_w();
      Rng rng(g.patch_size());
      nn::Conv2D conv(g, out_channels, rng, "conv");
      std::uint64_t seed = 60;
      for (const std::size_t batch : {64u, 16u, 64u}) {
        const std::string label = variant + " c" +
                                  std::to_string(g.in_channels) + " b" +
                                  std::to_string(batch) + " seed " +
                                  std::to_string(seed);
        const Tensor x = random_tensor(Shape{batch, features}, seed++);
        const Tensor gy = random_tensor(Shape{batch, out_features}, seed++);
        Rng fresh_rng(g.patch_size());
        nn::Conv2D fresh(g, out_channels, fresh_rng, "conv");
        *fresh.params()[1].value = *conv.params()[1].value;
        for (nn::Conv2D* layer : {&conv, &fresh}) {
          layer->params()[0].grad->fill(0.0f);
          layer->params()[1].grad->fill(0.0f);
        }
        expect_same_tensor(conv.forward(x), fresh.forward(x),
                           label + " y");
        expect_same_tensor(conv.backward(gy), fresh.backward(gy),
                           label + " grad_input");
        expect_same_tensor(*conv.params()[0].grad, *fresh.params()[0].grad,
                           label + " weight_grad");
        expect_same_tensor(*conv.params()[1].grad, *fresh.params()[1].grad,
                           label + " bias_grad");
      }
    }
  }
}

// --- one inference path ---------------------------------------------------

/// The models infer() serves: MLP (ReLU), LeNet-5 (conv, pool, tanh) and
/// a narrow VGG-16 (padded 3x3 convs).
struct InferModel {
  std::string label;
  nn::Network net;
  std::size_t features;
};

std::vector<InferModel> infer_models() {
  Rng rng(70);
  std::vector<InferModel> models;
  models.push_back({"mlp", nn::make_mlp(48, {24, 12}, 10, rng), 48});
  models.push_back({"lenet5",
                    nn::make_lenet5(nn::ImageSpec{3, 16, 16}, 10, rng),
                    3 * 16 * 16});
  models.push_back({"vgg16",
                    nn::make_vgg16(nn::ImageSpec{3, 32, 32}, 10, 4, rng),
                    3 * 32 * 32});
  return models;
}

TEST(FastPathOracle, InferMatchesTrainingForward) {
  // infer() saves nothing; the training forward() also saves what
  // backward() needs. Their logits must be the same bits.
  for (const std::string& variant : kernels::available()) {
    const KernelVariant kv(variant);
    for (const std::size_t threads : {1u, 4u}) {
      const ThreadCount tc(threads);
      for (InferModel& m : infer_models()) {
        const Tensor x = random_tensor(Shape{5, m.features}, 71);
        expect_same_tensor(m.net.infer(x), m.net.forward(x),
                           variant + " t" + std::to_string(threads) + " " +
                               m.label);
      }
    }
  }
}

TEST(FastPathOracle, InferReentrantUnderParallelFor) {
  // One const network serves every chunk of a slice from inside one
  // parallel_for body; each chunk's logits must be the bits of a serial
  // infer() of that chunk, on the float and the int8 path.
  constexpr std::size_t kChunks = 8;
  constexpr std::size_t kRows = 3;
  for (InferModel& m : infer_models()) {
    const std::vector<nn::QuantSpec> specs(m.net.mappable_weights().size(),
                                           nn::QuantSpec{});
    const nn::Network& net = m.net;
    const Tensor slice =
        random_tensor(Shape{kChunks * kRows, m.features}, 72);
    std::vector<Tensor> chunks;
    for (std::size_t i = 0; i < kChunks; ++i) {
      chunks.emplace_back(
          Shape{kRows, m.features},
          std::vector<float>(slice.data() + i * kRows * m.features,
                             slice.data() + (i + 1) * kRows * m.features));
    }
    for (const bool quantized : {false, true}) {
      const std::span<const nn::QuantSpec> s =
          quantized ? std::span<const nn::QuantSpec>(specs)
                    : std::span<const nn::QuantSpec>();
      std::vector<Tensor> got(kChunks);
      {
        const ThreadCount tc(4);
        parallel_for(0, kChunks, 1, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            got[i] = net.infer(chunks[i], s);
          }
        });
      }
      const ThreadCount tc(1);
      for (std::size_t i = 0; i < kChunks; ++i) {
        expect_same_tensor(got[i], net.infer(chunks[i], s),
                           m.label + (quantized ? " int8" : " float") +
                               " chunk " + std::to_string(i));
      }
    }
  }
}

TEST(FastPathOracle, FirstLayerSkipLeavesGradientsAndStepIdentical) {
  // Network::backward asks its first layer for parameter gradients only;
  // the reference walks every layer's full backward() by hand.
  const auto build = [](bool lenet) {
    Rng rng(40);
    return lenet ? nn::make_lenet5(nn::ImageSpec{3, 16, 16}, 10, rng)
                 : nn::make_mlp(48, {24, 12}, 10, rng);
  };
  for (const bool lenet : {true, false}) {
    const std::string label = lenet ? "lenet5" : "mlp";
    nn::Network net = build(lenet);
    nn::Network ref = build(lenet);
    const std::size_t features = lenet ? 3 * 16 * 16 : 48;
    const Tensor x = random_tensor(Shape{5, features}, 41);
    const std::vector<std::int32_t> labels{0, 3, 9, 4, 7};
    nn::SgdOptimizer opt({0.05, 0.9});
    nn::SgdOptimizer ref_opt({0.05, 0.9});
    for (int step = 0; step < 2; ++step) {
      net.train_batch(x, labels, opt, nullptr);

      ref.zero_grad();
      nn::SoftmaxCrossEntropy loss;
      loss.forward(ref.forward(x), labels);
      Tensor g = loss.backward();
      for (std::size_t i = ref.layer_count(); i-- > 0;) {
        g = ref.layer(i).backward(g);
      }
      std::vector<nn::ParamRef> got = net.params();
      std::vector<nn::ParamRef> want = ref.params();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_tensor(*got[i].grad, *want[i].grad,
                           label + " " + want[i].name + " grad");
      }
      ref_opt.step(want);
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_tensor(*got[i].value, *want[i].value,
                           label + " " + want[i].name + " after step");
      }
    }
  }
}

// --- fused training step -------------------------------------------------

/// A regularizer as the references below apply it, pass by pass.
struct RefRegularizer {
  enum class Kind { kNone, kL2, kSkewed } kind = Kind::kNone;
  double lambda1 = 0.0;  ///< L2's lambda, or the skewed left side's
  double lambda2 = 0.0;
  double factor = 0.0;
  /// Skewed omegas per mappable index; empty = live (factor * stddev).
  std::vector<double> frozen;

  std::unique_ptr<nn::Regularizer> make() const {
    if (kind == Kind::kL2) {
      return std::make_unique<nn::L2Regularizer>(lambda1);
    }
    if (kind == Kind::kNone) {
      return nullptr;
    }
    auto skewed =
        std::make_unique<nn::SkewedL2Regularizer>(lambda1, lambda2, factor);
    for (std::size_t i = 0; i < frozen.size(); ++i) {
      skewed->freeze_omega(i, frozen[i]);
    }
    return skewed;
  }

  std::string label() const {
    switch (kind) {
      case Kind::kNone:
        return "none";
      case Kind::kL2:
        return "l2";
      case Kind::kSkewed:
        return frozen.empty() ? "skewed live" : "skewed frozen";
    }
    return "?";
  }
};

/// The penalty of weight `index` and its gradient added into `grad`, as
/// the separate penalty() and add_gradient() passes computed them.
double reference_regularize(const RefRegularizer& r, const Tensor& w,
                            std::size_t index, Tensor& grad) {
  if (r.kind == RefRegularizer::Kind::kL2) {
    double sum = 0.0;
    for (std::size_t i = 0; i < w.numel(); ++i) {
      sum += static_cast<double>(w[i]) * static_cast<double>(w[i]);
    }
    const auto scale = static_cast<float>(2.0 * r.lambda1);
    for (std::size_t i = 0; i < w.numel(); ++i) {
      grad[i] += scale * w[i];
    }
    return r.lambda1 * static_cast<double>(static_cast<float>(sum));
  }
  double om = 0.0;
  if (r.frozen.empty()) {
    RunningStats rs;
    for (std::size_t i = 0; i < w.numel(); ++i) {
      rs.add(static_cast<double>(w[i]));
    }
    om = r.factor * rs.stddev();
  } else {
    om = r.frozen[index];
  }
  double left = 0.0;
  double right = 0.0;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    const double d = static_cast<double>(w[i]) - om;
    if (d < 0.0) {
      left += d * d;
    } else {
      right += d * d;
    }
  }
  const auto omf = static_cast<float>(om);
  const auto s1 = static_cast<float>(2.0 * r.lambda1);
  const auto s2 = static_cast<float>(2.0 * r.lambda2);
  for (std::size_t i = 0; i < w.numel(); ++i) {
    const float d = w[i] - omf;
    grad[i] += (d < 0.0f ? s1 : s2) * d;
  }
  return r.lambda1 * left + r.lambda2 * right;
}

/// The momentum-SGD pass: v = mu*v - lr*g; w += v.
void reference_sgd(Tensor& w, const Tensor& g, Tensor& v, float lr,
                   float mu) {
  for (std::size_t i = 0; i < w.numel(); ++i) {
    v[i] = mu * v[i] - lr * g[i];
    w[i] += v[i];
  }
}

std::vector<RefRegularizer> reference_regularizers(
    std::vector<double> frozen) {
  std::vector<RefRegularizer> out(5);
  out[1].kind = RefRegularizer::Kind::kL2;
  out[1].lambda1 = 3e-3;
  for (std::size_t i = 2; i < 4; ++i) {
    out[i].kind = RefRegularizer::Kind::kSkewed;
    out[i].lambda1 = 4e-3;
    out[i].lambda2 = 2e-4;
    out[i].factor = -0.8;
  }
  out[3].frozen = std::move(frozen);
  // lambda1 == lambda2 == 0: the gradient adds (+-0) * d.
  out[4].kind = RefRegularizer::Kind::kSkewed;
  out[4].frozen = out[3].frozen;
  return out;
}

TEST(FastPathOracle, FusedUpdateMatchesSeparatePasses) {
  // One pass per tensor against the three passes it replaced, on values
  // that include +-0, denormals, exact omega hits, NaN and +-inf. NaN
  // payloads: every NaN an element meets comes from one source (its w, its
  // g, or inf - inf), so the result does not depend on operand order.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min() / 3.0f;
  const float omega = 0.0625f;
  for (const std::size_t n : {23u, 1001u}) {
    for (const bool specials : {false, true}) {
      Tensor w = random_tensor(Shape{n}, 70 + n);
      Tensor g = random_tensor(Shape{n}, 71 + n);
      Tensor v = random_tensor(Shape{n}, 72 + n);
      const float w_set[] = {0.0f, -0.0f, denorm, -denorm, tiny,
                             -tiny, omega, std::nextafter(omega, 0.0f)};
      const float g_set[] = {0.0f, -0.0f, denorm, -tiny};
      for (std::size_t i = 0; i < std::size(w_set); ++i) {
        w[i] = w_set[i];
        g[i + 8] = g_set[i % std::size(g_set)];
        v[i + 12] = i % 2 == 0 ? -0.0f : denorm;
      }
      if (specials) {
        w[16] = nan;
        w[17] = inf;
        w[18] = -inf;
        g[19] = nan;
        g[20] = inf;
        g[21] = -inf;
      }
      // Live omegas only over finite weights (a NaN or inf makes every
      // omega NaN and hides the rest).
      for (const RefRegularizer& reg :
           reference_regularizers({static_cast<double>(omega)})) {
        if (specials && reg.kind == RefRegularizer::Kind::kSkewed &&
            reg.frozen.empty()) {
          continue;
        }
        const std::unique_ptr<nn::Regularizer> regularizer = reg.make();
        for (const double momentum : {0.0, 0.9}) {
          const std::string label = reg.label() + " n" + std::to_string(n) +
                                    (specials ? " specials" : "") + " mu " +
                                    std::to_string(momentum);
          nn::SgdOptimizer opt({0.05, momentum});
          Tensor w_got = w;
          Tensor g_got = g;
          opt.set_velocity(&w_got, v);
          double penalty = 0.0;
          if (regularizer != nullptr) {
            const nn::RegularizerTerm term = regularizer->term(w_got, 0);
            penalty = term.penalty(opt.update(w_got, g_got, &term));
          } else {
            opt.update(w_got, g_got, nullptr);
          }

          Tensor w_want = w;
          Tensor g_want = g;
          Tensor v_want = v;
          double penalty_want = 0.0;
          if (regularizer != nullptr) {
            penalty_want = reference_regularize(reg, w_want, 0, g_want);
            EXPECT_TRUE(same_bits(regularizer->penalty(w, 0), penalty_want))
                << label << " penalty()";
            Tensor g_added = g;
            regularizer->add_gradient(w, 0, g_added);
            expect_same_tensor(g_added, g_want, label + " add_gradient()");
          }
          reference_sgd(w_want, g_want, v_want, 0.05f,
                        static_cast<float>(momentum));
          EXPECT_TRUE(same_bits(penalty, penalty_want)) << label;
          expect_same_tensor(w_got, w_want, label + " w");
          expect_same_tensor(g_got, g_want, label + " g");
          expect_same_tensor(*opt.velocity_for(&w_got), v_want, label + " v");
        }
      }
    }
  }
}

/// Today's training step with the checked public API: zero_grad, every
/// layer's full backward, then per mappable weight the penalty and its
/// gradient, then one SGD pass per parameter. Returns the penalty.
double reference_train_step(nn::Network& net, const Tensor& x,
                            const std::vector<std::int32_t>& labels,
                            const RefRegularizer& reg, float lr, float mu,
                            std::vector<Tensor>& velocity) {
  net.zero_grad();
  nn::SoftmaxCrossEntropy loss;
  loss.forward(net.forward(x), labels);
  Tensor g = loss.backward();
  for (std::size_t i = net.layer_count(); i-- > 0;) {
    g = net.layer(i).backward(g);
  }
  const std::vector<nn::ParamRef> params = net.params();
  double penalty = 0.0;
  if (reg.kind != RefRegularizer::Kind::kNone) {
    std::size_t index = 0;
    for (const nn::ParamRef& p : params) {
      if (p.mappable) {
        penalty += reference_regularize(reg, *p.value, index++, *p.grad);
      }
    }
  }
  for (std::size_t i = velocity.size(); i < params.size(); ++i) {
    velocity.emplace_back(params[i].value->shape());
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    reference_sgd(*params[i].value, *params[i].grad, velocity[i], lr, mu);
  }
  return penalty;
}

/// Writes +-0, denormals and omega hits into the first elements of every
/// mappable weight (finite values only: a NaN or inf weight turns the
/// whole forward pass into NaNs from two sources, whose payloads would
/// then depend on each GEMM's operand order).
void plant_edge_weights(nn::Network& net, float omega) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float values[] = {0.0f, -0.0f, denorm, -denorm, omega};
  for (const nn::ParamRef& p : net.params()) {
    if (p.mappable) {
      for (std::size_t i = 0; i < std::size(values); ++i) {
        (*p.value)[i * 7] = values[i];
      }
    }
  }
}

TEST(FastPathOracle, TrainBatchMatchesSeparatePassesReference) {
  const float omega = 0.03125f;
  const auto build = [omega](bool lenet) {
    Rng rng(80);
    nn::Network net = lenet ? nn::make_lenet5(nn::ImageSpec{3, 16, 16}, 10, rng)
                            : nn::make_mlp(48, {24, 12}, 10, rng);
    plant_edge_weights(net, omega);
    return net;
  };
  const std::vector<std::int32_t> labels{0, 3, 9, 4, 7, 1};
  for (const std::string& variant : kernels::available()) {
    const KernelVariant kv(variant);
    for (const bool lenet : {false, true}) {
      const std::size_t features = lenet ? 3 * 16 * 16 : 48;
      Tensor x = random_tensor(Shape{labels.size(), features}, 81);
      x[0] = -0.0f;
      x[1] = std::numeric_limits<float>::denorm_min();
      const std::size_t mappable = build(lenet).mappable_weights().size();
      for (const RefRegularizer& reg : reference_regularizers(
               std::vector<double>(mappable, static_cast<double>(omega)))) {
        const std::unique_ptr<nn::Regularizer> regularizer = reg.make();
        for (const double momentum : {0.0, 0.9}) {
          const std::string label = variant + (lenet ? " lenet5 " : " mlp ") +
                                    reg.label() + " mu " +
                                    std::to_string(momentum);
          nn::Network net = build(lenet);
          nn::Network ref = build(lenet);
          nn::SgdOptimizer opt({0.05, momentum});
          std::vector<Tensor> velocity;
          for (int step = 0; step < 3; ++step) {
            const std::string at = label + " step " + std::to_string(step);
            const nn::TrainStats stats =
                net.train_batch(x, labels, opt, regularizer.get());
            const double penalty = reference_train_step(
                ref, x, labels, reg, 0.05f, static_cast<float>(momentum),
                velocity);
            EXPECT_TRUE(same_bits(stats.penalty, penalty)) << at;
            const std::vector<nn::ParamRef> got = net.params();
            const std::vector<nn::ParamRef> want = ref.params();
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
              const std::string name = at + " " + want[i].name;
              expect_same_tensor(*got[i].value, *want[i].value, name);
              expect_same_tensor(*got[i].grad, *want[i].grad, name + " grad");
              expect_same_tensor(*opt.velocity_for(got[i].value), velocity[i],
                                 name + " velocity");
            }
          }
        }
      }
    }
  }
}

/// core::train_model on a small dataset: 2 epochs of 5 steps, so the
/// skewed runs cover a live omega (epoch 0) and a frozen one (epoch 1).
core::ExperimentConfig digest_config(bool lenet) {
  core::ExperimentConfig cfg;
  cfg.model = lenet ? core::ExperimentConfig::Model::kLeNet5
                    : core::ExperimentConfig::Model::kMlp;
  cfg.dataset.height = 16;
  cfg.dataset.width = 16;
  cfg.dataset.train_per_class = 8;
  cfg.dataset.test_per_class = 2;
  cfg.train_config.epochs = 2;
  cfg.train_config.batch = 16;
  return cfg;
}

std::string_view bytes_of(const Tensor& t) {
  return {reinterpret_cast<const char*>(t.data()), t.numel() * sizeof(float)};
}

/// FNV-1a over every parameter value and gradient, every EpochStats field
/// and the final test accuracy.
std::uint64_t training_digest(core::TrainedModel& tm) {
  persist::Fingerprint fp;
  for (const nn::ParamRef& p : tm.network.params()) {
    fp.add(bytes_of(*p.value));
    fp.add(bytes_of(*p.grad));
  }
  for (const core::EpochStats& es : tm.history.epochs) {
    fp.add(static_cast<std::uint64_t>(es.epoch));
    fp.add(es.loss);
    fp.add(es.penalty);
    fp.add(es.train_accuracy);
    fp.add(es.test_accuracy);
  }
  fp.add(tm.history.final_test_accuracy);
  return fp.value();
}

TEST(FastPathOracle, TrainModelDigestsArePinned) {
  // Written by the separate-pass training step (penalty, add_gradient,
  // SGD step, zero-filled gradients) before the step was fused; the order
  // is mlp T, mlp ST, lenet5 T, lenet5 ST.
  const std::map<std::string, std::vector<std::uint64_t>> pinned{
      {"scalar",
       {0x2c0c4a200a5e553cULL, 0xd9748452aec6bed0ULL, 0xc029cab824285a07ULL,
        0xe069c94e4154cfb2ULL}},
      {"avx2",
       {0xfd77f154f525997dULL, 0xd23e53102e9f6f02ULL, 0x0cf0f640730ab553ULL,
        0x5ce7add9acf604e7ULL}},
  };
  for (const std::string& variant : kernels::available()) {
    const auto it = pinned.find(variant);
    if (it == pinned.end()) {
      continue;  // no digest recorded for this variant
    }
    const KernelVariant kv(variant);
    std::size_t k = 0;
    for (const bool lenet : {false, true}) {
      for (const bool skewed : {false, true}) {
        core::TrainedModel tm = core::train_model(digest_config(lenet), skewed);
        EXPECT_EQ(training_digest(tm), it->second[k++])
            << variant << (lenet ? " lenet5" : " mlp")
            << (skewed ? " ST" : " T");
      }
    }
  }
}

// --- sim executor against the per-cell reference over whole lifetimes -----

/// What a lifetime leaves behind: its result document and the bytes of
/// every deployed array, plus how many sessions climbed the ladder.
struct LifetimeOutput {
  std::string result;
  std::string state;
  std::size_t rescues = 0;
};

/// core::run_trained with every sequence programmed through `executor`.
LifetimeOutput run_lifetime_on(const core::ScenarioJob& job,
                               core::TrainedModel tm,
                               const data::TrainTest& data,
                               const xbar::ProgramExecutor& executor) {
  core::LifetimeConfig lc = job.config.lifetime;
  lc.tuning.target_accuracy =
      job.config.target_accuracy_fraction * tm.history.final_test_accuracy;
  tuning::HardwareNetwork hw(tm.network, job.config.device, job.config.aging,
                             job.config.faults, executor);
  const core::LifetimeResult result = core::LifetimeSimulator(lc).run(
      hw, data.train, data.test, core::mapping_policy(job.scenario));
  persist::StateWriter w;
  hw.save_state(w);
  const auto rescues = std::count_if(
      result.sessions.begin(), result.sessions.end(),
      [](const core::SessionRecord& s) { return !s.rescue_rungs.empty(); });
  return {core::lifetime_result_json(result).dump(), w.data(),
          static_cast<std::size_t>(rescues)};
}

// SimExecutor runs each column's pulses as one batch with the per-pulse
// device math hoisted; PerCellExecutor programs one cell per call through
// Crossbar::program_cell. Over the determinism matrix's three workloads
// (the MLP sweep, the faulted MLP with and without the escalation ladder,
// LeNet-5 ST+AT), and a small faulted campaign whose sessions tune, climb
// the ladder and remap onto spare rows, every programming pass must leave
// the same result document and the same array bytes.
TEST(FastPathOracle, SimMatchesPerCellOverLifetimes) {
  using core::Scenario;
  const core::ScenarioRunner runner(7);
  core::ExperimentConfig mlp = core::make_model_config("mlp");
  mlp.lifetime.max_sessions = 2;
  std::vector<core::ScenarioJob> jobs = core::ScenarioRunner::cross(
      mlp, {Scenario::kTT, Scenario::kSTT, Scenario::kSTAT});
  core::ExperimentConfig faulted = mlp;
  faulted.faults.nonideal.stuck_off_fraction = 0.02;
  faulted.faults.nonideal.write_noise_sigma = 0.02;
  for (const bool ladder : {true, false}) {
    faulted.lifetime.resilience.ladder_enabled = ladder;
    jobs.push_back({ladder ? "faults" : "faults_noladder", faulted,
                    Scenario::kSTAT});
  }
  for (core::ScenarioJob& job : jobs) {
    job.config = runner.forked_config(job);
  }
  core::ExperimentConfig lenet = core::make_model_config("lenet5");
  lenet.lifetime.max_sessions = 2;
  jobs.push_back({"lenet5", lenet, Scenario::kSTAT});
  core::ExperimentConfig ladder;
  ladder.model = core::ExperimentConfig::Model::kMlp;
  ladder.mlp_hidden = {16};
  ladder.dataset.classes = 4;
  ladder.dataset.channels = 1;
  ladder.dataset.height = 6;
  ladder.dataset.width = 6;
  ladder.dataset.train_per_class = 24;
  ladder.dataset.test_per_class = 6;
  ladder.dataset.noise = 0.1;
  ladder.train_config.epochs = 2;
  ladder.train_config.batch = 16;
  ladder.train_config.learning_rate = 0.05;
  ladder.lifetime.max_sessions = 8;
  ladder.lifetime.tuning.eval_samples = 24;
  ladder.lifetime.tuning.max_iterations = 20;
  ladder.target_accuracy_fraction = 0.9;
  ladder.faults.nonideal.stuck_off_fraction = 0.18;
  ladder.faults.nonideal.stuck_on_fraction = 0.05;
  ladder.faults.nonideal.write_noise_sigma = 0.05;
  ladder.faults.spare_rows = 4;
  ladder.faults.fault_seed = 22;
  jobs.push_back({"ladder", ladder, Scenario::kSTAT});

  // Positions 2j and 2j+1 share job j's training: one deploys it on the
  // per-cell reference, the other on sim.
  std::vector<std::string> keys;
  for (const core::ScenarioJob& job : jobs) {
    keys.insert(keys.end(), 2,
                core::training_key(job.config,
                                   core::uses_skewed_training(job.scenario)));
  }
  core::SharedSlots<core::TrainedParams> trainings(keys);
  const xbar::SimExecutor sim;
  const xbar::PerCellExecutor percell;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const core::ScenarioJob& job = jobs[j];
    const data::TrainTest data = data::make_synthetic(job.config.dataset);
    const bool skewed = core::uses_skewed_training(job.scenario);
    const LifetimeOutput want = run_lifetime_on(
        job,
        core::rebuild_model(job.config,
                            *core::share_training(trainings, 2 * j,
                                                  job.config, data, skewed,
                                                  {})),
        data, percell);
    const LifetimeOutput got = run_lifetime_on(
        job,
        core::rebuild_model(job.config,
                            *core::share_training(trainings, 2 * j + 1,
                                                  job.config, data, skewed,
                                                  {})),
        data, sim);
    EXPECT_EQ(got.result, want.result) << job.label;
    EXPECT_TRUE(got.state == want.state) << job.label << ": array bytes differ";
    if (job.label == "ladder") {
      EXPECT_GT(want.rescues, 0u) << "the ladder campaign never rescued";
    }
  }
}

}  // namespace
}  // namespace xbarlife
