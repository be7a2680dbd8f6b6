// Micro-benchmarks (google-benchmark): the computational kernels under
// the experiment harness — GEMM, im2col, one LeNet-5 training step,
// crossbar VMM, programming, the aging-model hot path and the
// per-session lifetime passes (aging statistics, drift, the SGD step).
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/memristor.hpp"
#include "mapping/mapper.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "tensor/im2col.hpp"
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

void BM_Im2col(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  ConvGeometry g{3, side, side, 3, 1, 1};
  Tensor image(Shape{3 * side * side});
  Rng rng(3);
  image.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor cols(Shape{g.patch_size(), g.out_h() * g.out_w()});
  for (auto _ : state) {
    im2col(image.flat(), g, cols.flat());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

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

void BM_CrossbarVmm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  xbar::Crossbar xb(n, n, {}, {});
  Rng rng(4);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      xb.program_cell(r, c, rng.uniform(1e4, 1e5));
    }
  }
  std::vector<float> v(n, 0.5f);
  std::vector<float> out(n);
  for (auto _ : state) {
    xb.vmm(v, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_CrossbarVmm)->Arg(64)->Arg(128)->Arg(256);

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

}  // namespace

BENCHMARK_MAIN();
