#include "tensor/matmul.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"

namespace xbarlife {

namespace {

void check_rank2(const Tensor& t, const char* name) {
  if (t.shape().rank() != 2) {
    throw ShapeError(std::string("matmul operand ") + name +
                     " must be rank-2, got " + t.shape().to_string());
  }
}

// Below this many flops (2*m*k*n) the pool's dispatch overhead exceeds
// the multiply itself — measured on the bench shapes, a 128^3 GEMM (~4M
// flops) is where threading starts to pay. Smaller products run serial.
constexpr std::size_t kSerialFlopThreshold = 8u << 20;

/// Row grain for the threaded GEMM paths. Small products collapse to a
/// single chunk (serial); large ones take parallel_grain's ~4 chunks per
/// thread. A thread-count-dependent grain is safe here because the
/// kernels compute each output element in a partition-independent order
/// (see kernels.hpp), so the partition never shows up in the bits.
std::size_t gemm_grain(std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t flops = 2 * m * k * n;
  if (flops < kSerialFlopThreshold) {
    return m;  // single chunk -> parallel_for runs it inline
  }
  return parallel_grain(m);
}

/// C += A * B via the active kernel, threaded over row chunks. Threads
/// write disjoint rows of C, so results are bit-identical at any thread
/// count.
void gemm_dispatch(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n) {
  const kernels::KernelSet& ks = kernels::select();
  parallel_for(0, m, gemm_grain(m, k, n),
               [&](std::size_t row_begin, std::size_t row_end) {
                 ks.gemm(a, b, c, m, k, n, row_begin, row_end);
               });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const std::size_t m = a.shape()[0];
  const std::size_t k = a.shape()[1];
  if (b.shape()[0] != k) {
    throw ShapeError("matmul inner dimension mismatch: " +
                     a.shape().to_string() + " x " + b.shape().to_string());
  }
  const std::size_t n = b.shape()[1];
  Tensor c(Shape{m, n});
  gemm_dispatch(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c,
                    bool accumulate) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  check_rank2(c, "C");
  const std::size_t k = a.shape()[0];
  const std::size_t m = a.shape()[1];
  const std::size_t n = b.shape()[1];
  if (b.shape()[0] != k) {
    throw ShapeError("matmul_tn inner dimension mismatch");
  }
  if (c.shape()[0] != m || c.shape()[1] != n) {
    throw ShapeError("matmul_tn output shape mismatch");
  }
  if (k == 0) {
    if (!accumulate) {
      c.zero();
    }
    return;
  }
  const kernels::KernelSet& ks = kernels::select();
  parallel_for(0, m, gemm_grain(m, k, n),
               [&](std::size_t row_begin, std::size_t row_end) {
                 ks.gemm_tn(a.data(), b.data(), c.data(), m, k, n, row_begin,
                            row_end, accumulate);
               });
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const std::size_t m = a.shape()[0];
  const std::size_t k = a.shape()[1];
  if (b.shape()[1] != k) {
    throw ShapeError("matmul_nt inner dimension mismatch");
  }
  const std::size_t n = b.shape()[0];
  Tensor c(Shape{m, n});
  const kernels::KernelSet& ks = kernels::select();
  parallel_for(0, m, gemm_grain(m, k, n),
               [&](std::size_t row_begin, std::size_t row_end) {
                 ks.gemm_nt(a.data(), b.data(), c.data(), m, k, n, row_begin,
                            row_end);
               });
  return c;
}

}  // namespace xbarlife
