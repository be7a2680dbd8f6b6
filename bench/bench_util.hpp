// Shared helpers for the experiment-reproduction binaries.
//
// Every bench prints the paper-style table/series to stdout and also
// writes a CSV under results/ so the numbers can be plotted without
// cluttering the working directory.
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>

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
