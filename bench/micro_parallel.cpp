// Thread-pool scaling microbench: serial vs multi-threaded GEMM and a
// LeNet-style lifetime sweep, with the determinism contract checked on
// real workloads (multi-threaded results must be byte-identical to the
// serial ones). Emits JSON to stdout and results/micro_parallel.json.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/scenario_runner.hpp"
#include "tensor/matmul.hpp"

using namespace xbarlife;

namespace {

/// Fastest of `reps` timed runs of `fn` after one unrecorded warm-up, in
/// seconds.
double min_seconds(const std::function<void()>& fn, int reps) {
  fn();
  double best = bench::ms_of(fn);
  for (int r = 1; r < reps; ++r) {
    best = std::min(best, bench::ms_of(fn));
  }
  return best / 1e3;
}

core::ExperimentConfig sweep_config(bool quick) {
  core::ExperimentConfig cfg;
  cfg.name = "micro-sweep";
  cfg.model = core::ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {32};
  cfg.dataset.classes = quick ? 4u : 8u;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.train_per_class = quick ? 16u : 40u;
  cfg.dataset.test_per_class = 8;
  cfg.train_config.epochs = quick ? 2u : 4u;
  cfg.train_config.batch = 16;
  cfg.lifetime.max_sessions = quick ? 10u : 40u;
  cfg.lifetime.tuning.eval_samples = 32;
  cfg.lifetime.tuning.max_iterations = 30;
  cfg.target_accuracy_fraction = 0.85;
  return cfg;
}

bool sweeps_identical(const std::vector<core::ScenarioSweepEntry>& a,
                      const std::vector<core::ScenarioSweepEntry>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& la = a[i].outcome.lifetime;
    const auto& lb = b[i].outcome.lifetime;
    if (a[i].seed != b[i].seed ||
        a[i].outcome.software_accuracy != b[i].outcome.software_accuracy ||
        la.lifetime_applications != lb.lifetime_applications ||
        la.sessions.size() != lb.sessions.size()) {
      return false;
    }
    for (std::size_t s = 0; s < la.sessions.size(); ++s) {
      if (la.sessions[s].accuracy != lb.sessions[s].accuracy ||
          la.sessions[s].pulses_total != lb.sessions[s].pulses_total ||
          la.sessions[s].tuning_iterations !=
              lb.sessions[s].tuning_iterations ||
          la.sessions[s].layer_mean_aged_rmax !=
              lb.sessions[s].layer_mean_aged_rmax) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header("Thread-pool scaling & determinism microbench",
                      "the simulation engine, not a paper figure");
  const bool quick = bench::quick_mode();
  const std::size_t dim = quick ? 128 : 512;
  const std::size_t threads = 4;
  const int repeats = quick ? 2 : 3;
  std::cout << "hardware threads available: "
            << std::thread::hardware_concurrency() << "\n";

  // --- GEMM: serial vs threaded, identical bits required. ---
  Rng rng(11);
  Tensor a(Shape{dim, dim});
  Tensor b(Shape{dim, dim});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  b.fill_gaussian(rng, 0.0f, 1.0f);

  set_parallel_threads(1);
  Tensor c_serial = matmul(a, b);
  const double gemm_serial =
      min_seconds([&] { c_serial = matmul(a, b); }, repeats);
  set_parallel_threads(threads);
  Tensor c_threaded = matmul(a, b);
  const double gemm_threaded =
      min_seconds([&] { c_threaded = matmul(a, b); }, repeats);
  const bool gemm_identical = c_serial == c_threaded;
  const double gemm_speedup = gemm_serial / gemm_threaded;
  std::cout << "gemm " << dim << "^3: serial " << gemm_serial
            << " s, " << threads << " threads " << gemm_threaded
            << " s, speedup " << gemm_speedup << "x, bit-identical: "
            << (gemm_identical ? "yes" : "NO") << "\n";

  // --- Lifetime sweep fan-out: serial vs threaded, byte-identical. ---
  const core::ScenarioRunner runner(21);
  const auto jobs = core::ScenarioRunner::cross(
      sweep_config(quick), {core::Scenario::kTT, core::Scenario::kSTT},
      2);
  // The sweep is timed with a single repetition (no warm-up): one run is
  // already seconds-scale, and the byte-identity check needs its result.
  set_parallel_threads(1);
  std::vector<core::ScenarioSweepEntry> sweep_one;
  const double sweep_serial =
      bench::ms_of([&] { sweep_one = runner.run(jobs); }) / 1e3;
  set_parallel_threads(threads);
  std::vector<core::ScenarioSweepEntry> sweep_n;
  const double sweep_threaded =
      bench::ms_of([&] { sweep_n = runner.run(jobs); }) / 1e3;
  set_parallel_threads(1);
  const bool sweep_identical = sweeps_identical(sweep_one, sweep_n);
  const double sweep_speedup = sweep_serial / sweep_threaded;
  std::cout << "lifetime sweep (" << jobs.size() << " jobs): serial "
            << sweep_serial << " s, " << threads << " threads "
            << sweep_threaded << " s, speedup " << sweep_speedup
            << "x, byte-identical series: "
            << (sweep_identical ? "yes" : "NO") << "\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"pool_threads\": " << threads << ",\n"
       << "  \"gemm\": {\"dim\": " << dim << ", \"serial_s\": "
       << gemm_serial << ", \"threaded_s\": " << gemm_threaded
       << ", \"speedup\": " << gemm_speedup << ", \"bit_identical\": "
       << (gemm_identical ? "true" : "false") << "},\n"
       << "  \"sweep\": {\"jobs\": " << jobs.size() << ", \"serial_s\": "
       << sweep_serial << ", \"threaded_s\": " << sweep_threaded
       << ", \"speedup\": " << sweep_speedup
       << ", \"byte_identical\": "
       << (sweep_identical ? "true" : "false") << "}\n"
       << "}\n";
  std::cout << json.str();
  const std::string out = bench::results_path("micro_parallel.json");
  std::ofstream(out) << json.str();
  std::cout << "JSON written to " << out << "\n";
  return (gemm_identical && sweep_identical) ? 0 : 1;
}
