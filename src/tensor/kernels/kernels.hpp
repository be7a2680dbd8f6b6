// Runtime-dispatched compute kernels.
//
// Every dense inner loop in the simulator (GEMM, the crossbar VMM, the
// int8 quantized GEMM) funnels through a KernelSet
// chosen once at startup: AVX2+FMA on capable x86-64, NEON on aarch64,
// and a portable scalar fallback everywhere. Selection is overridable
// with the XBARLIFE_KERNEL environment variable or the CLI --kernel flag
// (values: auto, scalar, avx2, neon).
//
// Determinism contract: each kernel computes every output element with a
// fixed ascending-k accumulation order that depends only on the operand
// shapes — never on how callers partition rows/columns across threads.
// Results are therefore bit-identical at any thread count *per dispatch
// variant*. Different variants (scalar vs avx2) may differ in the last
// ulp because the vector kernels use FMA; tests and goldens that need
// host-independent bytes pin XBARLIFE_KERNEL=scalar.
//
// Accumulation policy: float accumulators everywhere (scalar included).
// See docs/kernels.md for the rationale and the error model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xbarlife::kernels {

/// A dispatch variant: one set of serial per-chunk compute primitives.
/// Threading lives in the callers (matmul.cpp, crossbar.cpp), which
/// partition output rows/columns and invoke these on disjoint slices.
struct KernelSet {
  /// Variant name as reported by kernel_name(): "scalar", "avx2", "neon".
  const char* name;

  /// C(MxN) += A(MxK) * B(KxN), row-major, serial over [row_begin, row_end).
  /// Callers zero C first for a plain product.
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, std::size_t row_begin,
               std::size_t row_end);

  /// C(MxN) += A(MxK) * B^T where b is (N x K) row-major: independent dot
  /// products c[i][j] += dot(a_row_i, b_row_j) over [row_begin, row_end).
  void (*gemm_nt)(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, std::size_t row_begin,
                  std::size_t row_end);

  /// Crossbar vector-matrix multiply: out[c] = sum_r v[r] * g[r*cols + c]
  /// for c in [col_begin, col_end). `out` is pre-zeroed by the caller.
  void (*vmm)(const float* v, const float* g, float* out, std::size_t rows,
              std::size_t cols, std::size_t col_begin, std::size_t col_end);

  /// Int8 GEMM: C(MxN, int32) += A(MxK, int8) * B(KxN, int8). Integer
  /// accumulation is exact, so this is order-independent and identical
  /// across variants by construction.
  void (*gemm_s8)(const std::int8_t* a, const std::int8_t* b,
                  std::int32_t* c, std::size_t m, std::size_t k,
                  std::size_t n, std::size_t row_begin, std::size_t row_end);
};

/// Returns the active kernel set. First call resolves XBARLIFE_KERNEL
/// (throws InvalidArgument for unknown values); afterwards it is a single
/// atomic load. Thread-safe.
const KernelSet& select();

/// Forces the active variant by name ("scalar", "avx2", "neon"); "auto"
/// or "" re-runs CPU detection. Throws InvalidArgument when the variant
/// is unknown or not compiled into this binary, listing what is.
void set_kernel(const std::string& name);

/// Name of the active variant ("scalar", "avx2", "neon").
const char* kernel_name();

/// Names of every variant compiled in and usable on this CPU.
std::vector<std::string> available();

}  // namespace xbarlife::kernels
