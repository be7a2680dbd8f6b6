// Shared helpers for the experiment-reproduction binaries.
//
// Every bench prints the paper-style table/series to stdout and also
// writes a CSV under results/ so the numbers can be plotted without
// cluttering the working directory.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>

#include "core/experiment.hpp"

namespace xbarlife::bench {

/// Returns "results/<name>", creating the results directory (relative to
/// the current working directory) on first use.
inline std::string results_path(const std::string& name) {
  const std::filesystem::path dir{"results"};
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

/// True when XBARLIFE_QUICK is set: benches shrink their workloads for
/// smoke runs (CI) while keeping the qualitative shape.
inline bool quick_mode() {
  const char* env = std::getenv("XBARLIFE_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// The quick-mode shrink of a Table I experiment: a quarter of the
/// training set (at least 8 per class), a third of the epochs (at least
/// 2) and 60 sessions. Fig. 10 and Fig. 11 take it too, so their quick
/// LeNet-5 runs are Table I's quick LeNet-5 row.
inline void shrink_for_quick(core::ExperimentConfig& cfg) {
  cfg.dataset.train_per_class = std::max<std::size_t>(
      8, cfg.dataset.train_per_class / 4);
  cfg.train_config.epochs = std::max<std::size_t>(
      2, cfg.train_config.epochs / 3);
  cfg.lifetime.max_sessions = 60;
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "\n==============================================\n"
            << title << "\n(reproduces " << paper_ref
            << " of Zhang et al., DATE 2019)\n"
            << "==============================================\n";
}

/// Wall-clock milliseconds of one invocation of `fn`.
inline double ms_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace xbarlife::bench
