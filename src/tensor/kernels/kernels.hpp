// Runtime-dispatched compute kernels.
//
// The simulator's dense inner loops (GEMM, the int8 quantized GEMM) and
// the tanh activation funnel through a KernelSet chosen once at startup:
// AVX2+FMA on capable x86-64, and a portable scalar fallback everywhere
// else (aarch64 included). Selection is
// overridable with the XBARLIFE_KERNEL environment variable or the CLI
// --kernel flag (values: auto, scalar, avx2).
//
// Determinism contract: each kernel computes every output element with a
// fixed ascending-k accumulation order that depends only on the operand
// shapes — never on how callers partition rows/columns across threads.
// Results are therefore bit-identical at any thread count *per dispatch
// variant*. The float GEMMs of different variants (scalar vs avx2) may
// differ in the last ulp because the vector kernels use FMA; tests and
// goldens that need host-independent bytes pin XBARLIFE_KERNEL=scalar.
// gemm_s8 and tanh give the same bits on every variant.
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
/// Threading lives in the callers (matmul.cpp, conv.cpp, quantized.cpp),
/// which partition output rows and invoke these on disjoint slices.
struct KernelSet {
  /// Variant name as reported by kernel_name(): "scalar", "avx2".
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

  /// C(MxN) = A^T * B, or C += A^T * B with `accumulate`, where a is
  /// (K x M) row-major: the weight-gradient product x^T * dy read straight
  /// from x, serial over [row_begin, row_end). Each element takes gemm's
  /// operations on the materialized A^T in gemm's order, so the bits are
  /// gemm's accumulating into C, or, without `accumulate`, into a zeroed
  /// C (which this never zero-fills in a separate pass). Needs k > 0.
  void (*gemm_tn)(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, std::size_t row_begin,
                  std::size_t row_end, bool accumulate);

  /// Int8 GEMM: C(MxN, int32) += A(MxK, int8) * B(KxN, int8). Integer
  /// accumulation is exact, so this is order-independent and identical
  /// across variants by construction.
  void (*gemm_s8)(const std::int8_t* a, const std::int8_t* b,
                  std::int32_t* c, std::size_t m, std::size_t k,
                  std::size_t n, std::size_t row_begin, std::size_t row_end);

  /// y[i] = tanh(x[i]) for i in [0, n), with std::tanh's bits on every
  /// variant (see tanh_reference).
  void (*tanh)(const float* x, float* y, std::size_t n);
};

/// The scalar tanh every variant's `tanh` matches bit for bit: a port of
/// the fdlibm tanhf glibc uses (src/tensor/kernels/tanh.cpp).
void tanh_reference(const float* x, float* y, std::size_t n);

/// Returns the active kernel set. First call resolves XBARLIFE_KERNEL
/// (throws InvalidArgument for unknown values); afterwards it is a single
/// atomic load. Thread-safe.
const KernelSet& select();

/// Forces the active variant by name ("scalar", "avx2"); "auto"
/// or "" re-runs CPU detection. Throws InvalidArgument when the variant
/// is unknown or not compiled into this binary, listing what is.
void set_kernel(const std::string& name);

/// Name of the active variant ("scalar", "avx2").
const char* kernel_name();

/// Names of every variant compiled in and usable on this CPU.
std::vector<std::string> available();

}  // namespace xbarlife::kernels
