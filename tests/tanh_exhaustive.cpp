// Exhaustive bit-identity check of the tanh kernel: for every one of the
// 2^32 float bit patterns, tanh_reference and every kernel variant usable
// on this host must return std::tanh's bits. Exits 1 at the first
// mismatch it finds, naming the input. Not part of ctest: it takes about
// 20 s on 4 cores.
//
//   build/tests/tanh_exhaustive [threads]   # default: one per core
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"

using namespace xbarlife;

namespace {

struct Candidate {
  std::string name;
  void (*fn)(const float*, float*, std::size_t);
};

constexpr std::size_t kBlock = std::size_t{1} << 16;
constexpr std::size_t kBlocks = (std::size_t{1} << 32) / kBlock;

}  // namespace

int main(int argc, char** argv) {
  set_parallel_threads(argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 0);

  // Each distinct function once: the scalar variant is the reference
  // itself.
  std::vector<Candidate> candidates{{"reference", kernels::tanh_reference}};
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    const auto fn = kernels::select().tanh;
    bool seen = false;
    for (Candidate& c : candidates) {
      if (c.fn == fn) {
        c.name += "=" + name;
        seen = true;
      }
    }
    if (!seen) {
      candidates.push_back({name, fn});
    }
  }

  std::atomic<bool> failed{false};
  const auto start = std::chrono::steady_clock::now();
  parallel_for(0, kBlocks, 16, [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> in(kBlock);
    std::vector<float> x(kBlock);
    std::vector<float> want(kBlock);
    std::vector<float> got(kBlock);
    for (std::size_t b = begin; b < end && !failed.load(); ++b) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        in[i] = static_cast<std::uint32_t>(b * kBlock + i);
      }
      std::memcpy(x.data(), in.data(), kBlock * sizeof(float));
      for (std::size_t i = 0; i < kBlock; ++i) {
        want[i] = std::tanh(x[i]);
      }
      for (const Candidate& c : candidates) {
        c.fn(x.data(), got.data(), kBlock);
        if (std::memcmp(got.data(), want.data(), kBlock * sizeof(float)) == 0) {
          continue;
        }
        std::size_t i = 0;
        while (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) {
          ++i;
        }
        if (!failed.exchange(true)) {
          std::uint32_t g = 0;
          std::uint32_t w = 0;
          std::memcpy(&g, &got[i], sizeof g);
          std::memcpy(&w, &want[i], sizeof w);
          std::printf("MISMATCH %s: tanh(0x%08x) = 0x%08x, std::tanh 0x%08x\n",
                      c.name.c_str(), in[i], g, w);
        }
        return;
      }
    }
  });
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (failed.load()) {
    return 1;
  }
  for (const Candidate& c : candidates) {
    std::printf("%s: 0 mismatches over 4294967296 inputs\n", c.name.c_str());
  }
  std::printf("%.1f s on %zu threads\n", seconds, parallel_threads());
  return 0;
}
