// Micro-benchmarks (google-benchmark): the computational kernels under
// the experiment harness — GEMM, the LeNet-5 and VGG-16 convolutions'
// forward and weight gradient, tanh per kernel variant, one LeNet-5 and
// one VGG-16 training step, one MLP training step under each regularizer
// and its fused update pass, one LeNet-5 accuracy evaluation,
// crossbar VMM, programming, the array-state codec of the wire and of
// checkpoints (CRC-32, crossbar save/load, execute-request encoding), the
// aging-model hot path, the per-session lifetime passes (aging
// statistics, drift, the SGD step) and the synthetic dataset render.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "data/synthetic.hpp"
#include "device/memristor.hpp"
#include "mapping/mapper.hpp"
#include "nn/conv.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/regularizer.hpp"
#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"
#include "xbar/remote.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/matmul.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/executor.hpp"

using namespace xbarlife;

namespace {

Tensor random_matrix(std::size_t rows, std::size_t cols,
                     std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{rows, cols});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Tensor a = random_matrix(n, n, 1);
  Tensor b = random_matrix(n, n, 2);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulS8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::int8_t> a(n * n);
  std::vector<std::int8_t> b(n * n);
  for (auto& v : a) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  for (auto& v : b) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  std::vector<std::int32_t> c(n * n);
  const kernels::KernelSet& ks = kernels::select();
  for (auto _ : state) {
    std::memset(c.data(), 0, c.size() * sizeof(std::int32_t));
    ks.gemm_s8(a.data(), b.data(), c.data(), n, n, n, 0, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulS8)->Arg(64)->Arg(256);

/// A LeNet-5 convolution layer on 3x16x16 inputs: conv1 (3x16x16 -> 6
/// channels of 12x12) or conv2 (6x6x6 -> 16 channels of 2x2); or a
/// padded 3x3 VGG-16 (width 4, 3x32x32 inputs) layer: conv2 (4x32x32 ->
/// 4, the first block) or conv10 (32x4x4 -> 32, the last conv of the
/// fourth block).
struct ConvShape {
  ConvGeometry g;
  std::size_t out_channels;
};
const ConvShape kConv1{{3, 16, 16, 5, 0}, 6};
const ConvShape kConv2{{6, 6, 6, 5, 0}, 16};
const ConvShape kVggConv2{{4, 32, 32, 3, 1}, 4};
const ConvShape kVggConv10{{32, 4, 4, 3, 1}, 32};

/// One Conv2D inference (`infer`, float) over state.range(0) samples (64 =
/// an evaluation batch, 16 = a training batch).
void BM_ConvForward(benchmark::State& state, const ConvShape& shape) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(15);
  nn::Conv2D conv(shape.g, shape.out_channels, rng, "conv");
  const ConvGeometry& g = shape.g;
  const Tensor x = random_matrix(batch, g.in_channels * g.in_h * g.in_w, 16);
  for (auto _ : state) {
    Tensor y = conv.infer(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK_CAPTURE(BM_ConvForward, conv1, kConv1)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ConvForward, conv2, kConv2)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ConvForward, vgg_conv2, kVggConv2)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ConvForward, vgg_conv10, kVggConv10)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);

/// The weight and bias gradients of one Conv2D over state.range(0)
/// samples (`backward_params`, what a network's first layer runs).
void BM_ConvWeightGrad(benchmark::State& state, const ConvShape& shape) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(15);
  nn::Conv2D conv(shape.g, shape.out_channels, rng, "conv");
  const ConvGeometry& g = shape.g;
  const Tensor x = random_matrix(batch, g.in_channels * g.in_h * g.in_w, 16);
  const Tensor gy = random_matrix(
      batch, shape.out_channels * g.out_h() * g.out_w(), 17);
  conv.forward(x);
  const float* weight_grad = conv.params()[0].grad->data();
  for (auto _ : state) {
    conv.backward_params(gy);
    benchmark::DoNotOptimize(weight_grad);
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_ConvWeightGrad, conv1, kConv1)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ConvWeightGrad, conv2, kConv2)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ConvWeightGrad, vgg_conv2, kVggConv2)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ConvWeightGrad, vgg_conv10, kVggConv10)
    ->Arg(64)->Arg(16)->Unit(benchmark::kMicrosecond);

/// One LeNet-5 training step (forward, loss, backward, SGD) on a batch
/// of 16 3x16x16 images, the shape the lenet5 workloads train on.
void BM_LeNetTrainStep(benchmark::State& state) {
  Rng rng(12);
  nn::Network net = nn::make_lenet5(nn::ImageSpec{3, 16, 16}, 10, rng);
  Tensor x = random_matrix(16, 3 * 16 * 16, 13);
  std::vector<std::int32_t> labels(16);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  nn::SgdOptimizer opt({0.01, 0.9});
  for (auto _ : state) {
    const nn::TrainStats stats = net.train_batch(x, labels, opt, nullptr);
    benchmark::DoNotOptimize(stats.loss);
  }
}
BENCHMARK(BM_LeNetTrainStep)->Unit(benchmark::kMicrosecond);

/// T's L2 or ST's skewed regularizer at the default training parameters
/// (core::ExperimentConfig), the skewed omegas frozen at `weights` as
/// they are after the first epoch.
std::unique_ptr<nn::Regularizer> train_regularizer(
    bool skewed, const std::vector<const Tensor*>& weights) {
  if (!skewed) {
    return std::make_unique<nn::L2Regularizer>(1e-4);
  }
  auto reg = std::make_unique<nn::SkewedL2Regularizer>(5e-4, 5e-5, -1.0);
  reg->freeze_omegas(weights);
  return reg;
}

/// One MLP training step (768->64->32->10, batch 16), the mlp workloads'
/// training shape, under T's L2 or ST's skewed regularizer.
void BM_MlpTrainStep(benchmark::State& state, bool skewed) {
  Rng rng(12);
  nn::Network net = nn::make_mlp(768, {64, 32}, 10, rng);
  std::vector<const Tensor*> weights;
  for (const nn::MappableWeight& mw : net.mappable_weights()) {
    weights.push_back(mw.value);
  }
  const std::unique_ptr<nn::Regularizer> reg =
      train_regularizer(skewed, weights);
  Tensor x = random_matrix(16, 768, 13);
  std::vector<std::int32_t> labels(16);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  nn::SgdOptimizer opt({0.01, 0.9});
  for (auto _ : state) {
    const nn::TrainStats stats = net.train_batch(x, labels, opt, reg.get());
    benchmark::DoNotOptimize(stats.penalty);
  }
}
BENCHMARK_CAPTURE(BM_MlpTrainStep, l2, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MlpTrainStep, skewed, true)
    ->Unit(benchmark::kMicrosecond);

/// The training step's one pass over the MLP's 768x64 first-layer weight:
/// regularizer gradient, penalty sums and momentum SGD.
void BM_RegularizedUpdate(benchmark::State& state, bool skewed) {
  Tensor weight = random_matrix(768, 64, 10);
  weight.scale_(0.05f);
  Tensor grad = random_matrix(768, 64, 11);
  grad.scale_(1e-3f);
  const std::unique_ptr<nn::Regularizer> reg =
      train_regularizer(skewed, {&weight});
  nn::SgdOptimizer opt({0.01, 0.9});
  for (auto _ : state) {
    const nn::RegularizerTerm term = reg->term(weight, 0);
    const nn::PenaltySums sums = opt.update(weight, grad, &term);
    benchmark::DoNotOptimize(sums.right);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(weight.numel()));
}
BENCHMARK_CAPTURE(BM_RegularizedUpdate, l2, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RegularizedUpdate, skewed, true)
    ->Unit(benchmark::kMicrosecond);

/// One VGG-16 training step (width 4, 100 classes) on a batch of 16
/// 3x32x32 images, the vgg16 model's training shape.
void BM_Vgg16TrainStep(benchmark::State& state) {
  Rng rng(12);
  nn::Network net = nn::make_vgg16(nn::ImageSpec{3, 32, 32}, 100, 4, rng);
  Tensor x = random_matrix(16, 3 * 32 * 32, 13);
  std::vector<std::int32_t> labels(16);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i * 7 % 100);
  }
  nn::SgdOptimizer opt({0.005, 0.9});
  for (auto _ : state) {
    const nn::TrainStats stats = net.train_batch(x, labels, opt, nullptr);
    benchmark::DoNotOptimize(stats.loss);
  }
}
BENCHMARK(BM_Vgg16TrainStep)->Unit(benchmark::kMicrosecond);

/// One accuracy evaluation of LeNet-5 over 128 3x16x16 samples, the
/// online tuner's eval_samples, in the default 64-sample batches.
void BM_LeNetEvaluate(benchmark::State& state) {
  Rng rng(12);
  nn::Network net = nn::make_lenet5(nn::ImageSpec{3, 16, 16}, 10, rng);
  Tensor x = random_matrix(128, 3 * 16 * 16, 13);
  std::vector<std::int32_t> labels(128);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.evaluate(x, labels));
  }
}
BENCHMARK(BM_LeNetEvaluate)->Unit(benchmark::kMicrosecond);

/// tanh over one `tanh1` activation of a 64-sample LeNet-5 batch (6
/// channels of 12x12 pixels, 55,296 floats) through one kernel variant.
void BM_Tanh(benchmark::State& state, const std::string& variant) {
  const std::vector<std::string> names = kernels::available();
  if (std::find(names.begin(), names.end(), variant) == names.end()) {
    state.SkipWithError("variant not available on this host");
    return;
  }
  const std::string active = kernels::kernel_name();
  kernels::set_kernel(variant);
  const auto fn = kernels::select().tanh;
  kernels::set_kernel(active);
  constexpr std::size_t kN = 64 * 6 * 12 * 12;
  const Tensor x = random_matrix(1, kN, 14);
  std::vector<float> y(kN);
  for (auto _ : state) {
    fn(x.data(), y.data(), kN);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}
BENCHMARK_CAPTURE(BM_Tanh, scalar, std::string("scalar"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Tanh, avx2, std::string("avx2"))
    ->Unit(benchmark::kMicrosecond);

/// Pure pulse-stream execution: a pre-built full-array ProgramSequence
/// (one pulse per cell, canonical column-batched order) executed on a
/// persistent crossbar through a fixed backend, with the observability
/// counters attached exactly as HardwareNetwork attaches them in every
/// production run (the per-cell path bumps them per pulse, the batched
/// path per batch). The array runs the zero-crosstalk configuration:
/// there every ambient share is exactly +0.0 and the batched path's
/// zero-share elision breaks the loop-carried dependency through the
/// shared pool, on top of its transcendental hoists (with nonzero
/// crosstalk the pool accumulation is order-dependent FP and serializes
/// both backends alike — the gap shrinks to the hoists, ~1.6x).
/// This isolates the programming hot path the executor owns; the
/// BM_ProgramPass family below times the full write-verify pass under
/// default params, and scripts/check_micro_ratios.py gates it.
void execute_sequence_with(benchmark::State& state,
                           const xbar::ProgramExecutor& exec) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  xbar::SequenceBuilder builder(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      builder.pulse(r, c, rng.uniform(1e4, 1e5));
    }
  }
  const xbar::ProgramSequence seq = builder.build();
  aging::AgingParams ap;
  ap.thermal_crosstalk = 0.0;
  xbar::Crossbar xb(n, n, {}, ap);
  obs::Counter pulses;
  obs::Counter traced;
  obs::Counter sequences;
  obs::Counter batches;
  xb.attach_pulse_counters(&pulses, &traced);
  xb.attach_executor_counters(&sequences, &batches);
  for (auto _ : state) {
    const xbar::ExecReport rep = exec.execute(xb, seq);
    benchmark::DoNotOptimize(rep.results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}

void BM_ProgramWeightsBatched(benchmark::State& state) {
  const xbar::SimExecutor exec;
  execute_sequence_with(state, exec);
}
BENCHMARK(BM_ProgramWeightsBatched)->Arg(64)->Arg(128);

void BM_ProgramWeightsPerCell(benchmark::State& state) {
  const xbar::PerCellExecutor exec;
  execute_sequence_with(state, exec);
}
BENCHMARK(BM_ProgramWeightsPerCell)->Arg(64)->Arg(128);

/// The same pulse stream shipped through the remote backend over the
/// in-process loopback worker (clean link): measures the full wire round
/// trip — request encode (array params + state + sequence), framing +
/// CRC both ways, the worker's array rebuild and execution, response
/// decode, and the client-side state restore. The gap vs
/// BM_ProgramWeightsBatched is the protocol's cost.
void BM_ProgramWeightsRemoteLoopback(benchmark::State& state) {
  const xbar::RemoteExecutor exec{xbar::RemoteConfig{}};
  execute_sequence_with(state, exec);
}
BENCHMARK(BM_ProgramWeightsRemoteLoopback)->Arg(64)->Arg(128);

/// The same stream through the remote backend over `range(1)` loopback
/// workers: every request still lands on the array's single rendezvous
/// owner, so this vs the one-endpoint benchmark above isolates the
/// multi-endpoint dispatch bookkeeping (hash, circuit check, accounting)
/// from protocol cost.
void BM_ProgramWeightsPool(benchmark::State& state) {
  xbar::RemoteConfig cfg;
  cfg.address = "loopback";
  for (std::int64_t i = 1; i < state.range(1); ++i) {
    cfg.address += ",loopback";
  }
  const xbar::RemoteExecutor exec{cfg};
  execute_sequence_with(state, exec);
}
BENCHMARK(BM_ProgramWeightsPool)->Args({64, 3})->Args({128, 3});

/// One full-array write pass through `mapping::program_weights` — 64x64
/// Gaussian weights on a 10k-100k window with 32 levels, default device
/// and aging params, `skip_unchanged=false` so every rep pulses every
/// cell — on a crossbar that persists across reps, through one executor
/// per benchmark argument. scripts/check_micro_ratios.py gates this
/// family's medians: batched <= percell x 1.10, remote_loopback <=
/// batched x 12, pool3_loopback <= remote_loopback x 1.25.
void BM_ProgramPass(benchmark::State& state, const std::string& backend) {
  constexpr std::size_t n = 64;
  Rng rng(31);
  Tensor w(Shape{n, n});
  w.fill_gaussian(rng, 0.0f, 0.5f);
  const mapping::MappingPlan plan(mapping::weight_range_of(w), {1e4, 1e5},
                                  32);
  std::unique_ptr<xbar::ProgramExecutor> exec;
  if (backend == "sim") {
    exec = std::make_unique<xbar::SimExecutor>();
  } else if (backend == "percell") {
    exec = std::make_unique<xbar::PerCellExecutor>();
  } else {
    xbar::RemoteConfig cfg;
    cfg.address = backend;  // a remote endpoint list
    exec = std::make_unique<xbar::RemoteExecutor>(cfg);
  }
  xbar::Crossbar xb(n, n, {}, {});
  const auto pass = [&] {
    return mapping::program_weights(xb, w, plan, false, nullptr, nullptr,
                                    nullptr, exec.get());
  };
  pass();  // warm-up, not timed (a remote link connects here)
  for (auto _ : state) {
    benchmark::DoNotOptimize(pass().programmed_cells);
  }
}
// A fixed pass count keeps every backend on the same aging trajectory:
// each repetition times passes 2-6 of a fresh crossbar.
BENCHMARK_CAPTURE(BM_ProgramPass, batched, std::string("sim"))
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProgramPass, percell, std::string("percell"))
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProgramPass, remote_loopback, std::string("loopback"))
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProgramPass, pool3_loopback,
                  std::string("loopback,loopback,loopback"))
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

/// CRC-32 of `range(0)` bytes: every wire frame and checkpoint payload is
/// checksummed once on each side.
void BM_Crc32(benchmark::State& state) {
  Rng rng(13);
  std::string buf(static_cast<std::size_t>(state.range(0)), '\0');
  for (char& c : buf) {
    c = static_cast<char>(rng() & 0xffU);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::crc32(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(2097152);

/// Saves or loads the full state of the MLP's first array (768 inputs +
/// bias row, 64 outputs): what each remote request ships both ways and
/// each checkpoint writes per layer.
void BM_CrossbarStateCodec(benchmark::State& state, bool load) {
  xbar::Crossbar xb(769, 64, {}, {});
  persist::StateWriter saved;
  xb.save_state(saved);
  for (auto _ : state) {
    if (load) {
      persist::StateReader r(saved.data());
      xb.load_state(r);
      benchmark::DoNotOptimize(&xb);
    } else {
      persist::StateWriter w(xb.state_bytes());
      xb.save_state(w);
      benchmark::DoNotOptimize(w.data().data());
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(saved.size()));
}
BENCHMARK_CAPTURE(BM_CrossbarStateCodec, save, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CrossbarStateCodec, load, true)
    ->Unit(benchmark::kMicrosecond);

/// Encodes one remote execute request for the same array: a write pass
/// of one pulse per cell, column-batched.
void BM_EncodeExecuteRequest(benchmark::State& state, std::size_t rows,
                             std::size_t cols) {
  xbar::Crossbar xb(rows, cols, {}, {});
  Rng rng(12);
  xbar::SequenceBuilder builder(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      builder.pulse(r, c, rng.uniform(1e4, 1e5));
    }
  }
  const xbar::ProgramSequence seq = builder.build();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string request = xbar::encode_execute_request(xb, seq);
    bytes = request.size();
    benchmark::DoNotOptimize(request.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_EncodeExecuteRequest, 769x64, 769, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_StressIncrement(benchmark::State& state) {
  aging::AgingModel model({});
  double current = 1e-5;
  for (auto _ : state) {
    const double ds = model.stress_increment(1e-7, 310.0, current);
    benchmark::DoNotOptimize(ds);
    current = 1e-5 + ds;  // defeat constant folding
  }
}
BENCHMARK(BM_StressIncrement);

/// A 768 x 64 array (the MLP's first layer) aged unevenly: cell i took
/// i % 97 pulses at random targets under the default crosstalk.
std::unique_ptr<xbar::Crossbar> aged_array() {
  auto xb = std::make_unique<xbar::Crossbar>(768, 64, device::DeviceParams{},
                                             aging::AgingParams{});
  Rng rng(8);
  xbar::SequenceBuilder builder(xb->rows(), xb->cols());
  for (std::size_t pass = 0; pass < 96; ++pass) {
    for (std::size_t c = 0; c < xb->cols(); ++c) {
      for (std::size_t r = 0; r < xb->rows(); ++r) {
        if (pass < (r * xb->cols() + c) % 97) {
          builder.pulse(r, c, rng.uniform(1e4, 1e5));
        }
      }
    }
    xbar::SimExecutor().execute(*xb, builder.build());
  }
  return xb;
}

/// Per-session aging statistics over one aged layer.
void BM_AgingStats(benchmark::State& state) {
  static const std::unique_ptr<xbar::Crossbar> xb = aged_array();
  for (auto _ : state) {
    const xbar::CrossbarAgingStats s = xb->aging_stats();
    benchmark::DoNotOptimize(s.mean_usable_levels);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xb->cells().size()));
}
BENCHMARK(BM_AgingStats)->Unit(benchmark::kMicrosecond);

/// One between-session drift step over the same aged layer.
void BM_DriftPass(benchmark::State& state) {
  static const std::unique_ptr<xbar::Crossbar> xb = aged_array();
  Rng rng(9);
  for (auto _ : state) {
    xb->drift_pass(rng, 0.02);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xb->cells().size()));
}
BENCHMARK(BM_DriftPass)->Unit(benchmark::kMicrosecond);

/// One momentum-SGD step over the MLP's first layer (weight and bias).
void BM_SgdStep(benchmark::State& state) {
  Tensor weight = random_matrix(768, 64, 10);
  Tensor weight_grad = random_matrix(768, 64, 11);
  Tensor bias(Shape{64});
  Tensor bias_grad(Shape{64}, 0.01f);
  std::vector<nn::ParamRef> params(2);
  params[0].value = &weight;
  params[0].grad = &weight_grad;
  params[1].value = &bias;
  params[1].grad = &bias_grad;
  nn::SgdOptimizer opt({0.01, 0.9});
  for (auto _ : state) {
    opt.step(params);
    benchmark::DoNotOptimize(weight.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(weight.numel() +
                                                    bias.numel()));
}
BENCHMARK(BM_SgdStep)->Unit(benchmark::kMicrosecond);

/// One train/test render of an experiment's dataset: LeNet-5's (also
/// the MLP's: 640 3x16x16 images, 4 texture waves) and VGG-16's (1,600
/// 3x32x32 images, 6 waves). Items are pixels.
void BM_MakeSynthetic(benchmark::State& state,
                      const data::SyntheticSpec& spec) {
  std::size_t pixels = 0;
  for (auto _ : state) {
    const data::TrainTest tt = data::make_synthetic(spec);
    pixels = tt.train.images.numel() + tt.test.images.numel();
    benchmark::DoNotOptimize(tt.train.images.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pixels));
}
BENCHMARK_CAPTURE(BM_MakeSynthetic, lenet5,
                  core::lenet_experiment_config().dataset)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MakeSynthetic, vgg16,
                  core::vgg_experiment_config().dataset)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
