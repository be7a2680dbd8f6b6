// Portable scalar kernel variant. This file must stay free of
// target-specific intrinsics and is compiled without extra ISA flags so
// it runs on the x86-64/aarch64 baseline; it is also the variant pinned
// by golden tests (XBARLIFE_KERNEL=scalar) for host-independent bytes.
#include "tensor/kernels/kernels.hpp"

namespace xbarlife::kernels {
namespace {

// Cache-blocked i-k-j loop: the innermost loop is a contiguous axpy over
// C's row, which the compiler auto-vectorizes. Per output element the
// accumulation is plain ascending-k float adds — independent of
// row_begin/row_end, so any caller partition yields identical bits.
void gemm_scalar(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, std::size_t row_begin,
                 std::size_t row_end) {
  (void)m;
  constexpr std::size_t kBlockK = 64;
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = k0 + kBlockK < k ? k0 + kBlockK : k;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      float* crow = c + i * n;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const float aik = a[i * k + kk];
        const float* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
  }
}

void gemm_nt_scalar(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, std::size_t row_begin,
                    std::size_t row_end) {
  (void)m;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += arow[kk] * brow[kk];
      }
      crow[j] += acc;
    }
  }
}

void vmm_scalar(const float* v, const float* g, float* out, std::size_t rows,
                std::size_t cols, std::size_t col_begin,
                std::size_t col_end) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float vr = v[r];
    const float* grow = g + r * cols;
    for (std::size_t c = col_begin; c < col_end; ++c) {
      out[c] += vr * grow[c];
    }
  }
}

void gemm_s8_scalar(const std::int8_t* a, const std::int8_t* b,
                    std::int32_t* c, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t row_begin,
                    std::size_t row_end) {
  (void)m;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const std::int8_t* arow = a + i * k;
    std::int32_t* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::int32_t aik = arow[kk];
      const std::int8_t* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += aik * static_cast<std::int32_t>(brow[j]);
      }
    }
  }
}

constexpr KernelSet kScalar{
    "scalar", gemm_scalar, gemm_nt_scalar, vmm_scalar, gemm_s8_scalar,
};

}  // namespace

const KernelSet* scalar_kernels() { return &kScalar; }

}  // namespace xbarlife::kernels
