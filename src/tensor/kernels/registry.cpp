#include "tensor/kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "common/error.hpp"

namespace xbarlife::kernels {

// Each variant translation unit exports its KernelSet, or nullptr when
// the variant is not compiled for this target (see scalar.cpp, avx2.cpp).
const KernelSet* scalar_kernels();
const KernelSet* avx2_kernels();

namespace {

/// True when the running CPU can execute the AVX2+FMA kernels.
bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelSet* detect_best() {
  if (const KernelSet* k = avx2_kernels(); k != nullptr && cpu_has_avx2_fma()) {
    return k;
  }
  return scalar_kernels();
}

const KernelSet* resolve(const std::string& name) {
  if (name.empty() || name == "auto") {
    return detect_best();
  }
  if (name == "scalar") {
    return scalar_kernels();
  }
  if (name == "avx2") {
    const KernelSet* k = avx2_kernels();
    if (k != nullptr && cpu_has_avx2_fma()) {
      return k;
    }
    return nullptr;
  }
  return nullptr;
}

std::string available_list() {
  std::string out;
  for (const std::string& name : available()) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

std::atomic<const KernelSet*> g_active{nullptr};

/// First-use initialization from XBARLIFE_KERNEL. A racing pair of
/// threads would resolve the same value and store the same pointer, so
/// the race is benign.
const KernelSet* init_from_env() {
  const char* env = std::getenv("XBARLIFE_KERNEL");
  const std::string name = env != nullptr ? env : "";
  const KernelSet* k = resolve(name);
  if (k == nullptr) {
    throw InvalidArgument("XBARLIFE_KERNEL=" + name +
                          " is not a usable kernel variant on this host "
                          "(available: " +
                          available_list() + ")");
  }
  g_active.store(k, std::memory_order_release);
  return k;
}

}  // namespace

const KernelSet& select() {
  const KernelSet* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = init_from_env();
  }
  return *k;
}

void set_kernel(const std::string& name) {
  const KernelSet* k = resolve(name);
  if (k == nullptr) {
    throw InvalidArgument("unknown or unavailable kernel variant '" + name +
                          "' (available: " + available_list() + ")");
  }
  g_active.store(k, std::memory_order_release);
}

const char* kernel_name() { return select().name; }

std::vector<std::string> available() {
  std::vector<std::string> out;
  if (const KernelSet* k = avx2_kernels(); k != nullptr && cpu_has_avx2_fma()) {
    out.emplace_back(k->name);
  }
  out.emplace_back(scalar_kernels()->name);
  return out;
}

}  // namespace xbarlife::kernels
