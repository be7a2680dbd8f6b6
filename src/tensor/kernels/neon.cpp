// NEON kernel variant for aarch64, where NEON (ASIMD) is architectural.
// Not compiled on other targets; the registry sees nullptr there.
#include "tensor/kernels/kernels.hpp"

#if defined(__ARM_NEON) && defined(__aarch64__)

#include <arm_neon.h>

namespace xbarlife::kernels {
namespace {

// Same blocking story as the scalar variant but with explicit 4-wide
// axpy over C's row. Per output element the accumulation is ascending-k
// fused multiply-adds, independent of the caller's row partition.
void gemm_neon(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, std::size_t row_begin,
               std::size_t row_end) {
  (void)m;
  constexpr std::size_t kBlockK = 64;
  const std::size_t n4 = n - n % 4;
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = k0 + kBlockK < k ? k0 + kBlockK : k;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      float* crow = c + i * n;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const float32x4_t av = vdupq_n_f32(a[i * k + kk]);
        const float* brow = b + kk * n;
        std::size_t j = 0;
        for (; j < n4; j += 4) {
          vst1q_f32(crow + j,
                    vfmaq_f32(vld1q_f32(crow + j), av, vld1q_f32(brow + j)));
        }
        for (; j < n; ++j) {
          crow[j] += a[i * k + kk] * brow[j];
        }
      }
    }
  }
}

void gemm_nt_neon(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, std::size_t row_begin,
                  std::size_t row_end) {
  (void)m;
  const std::size_t k4 = k - k % 4;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::size_t kk = 0; kk < k4; kk += 4) {
        acc = vfmaq_f32(acc, vld1q_f32(arow + kk), vld1q_f32(brow + kk));
      }
      float sum = vaddvq_f32(acc);
      for (std::size_t kk = k4; kk < k; ++kk) {
        sum += arow[kk] * brow[kk];
      }
      crow[j] += sum;
    }
  }
}

void vmm_neon(const float* v, const float* g, float* out, std::size_t rows,
              std::size_t cols, std::size_t col_begin, std::size_t col_end) {
  const std::size_t span = col_end - col_begin;
  const std::size_t body = span - span % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    const float vr = v[r];
    const float32x4_t vv = vdupq_n_f32(vr);
    const float* grow = g + r * cols + col_begin;
    float* orow = out + col_begin;
    std::size_t c = 0;
    for (; c < body; c += 4) {
      vst1q_f32(orow + c,
                vfmaq_f32(vld1q_f32(orow + c), vv, vld1q_f32(grow + c)));
    }
    for (; c < span; ++c) {
      orow[c] += vr * grow[c];
    }
  }
}

void gemm_s8_neon(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                  std::size_t m, std::size_t k, std::size_t n,
                  std::size_t row_begin, std::size_t row_end) {
  (void)m;
  const std::size_t n8 = n - n % 8;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const std::int8_t* arow = a + i * k;
    std::int32_t* crow = c + i * n;
    for (std::size_t j0 = 0; j0 < n8; j0 += 8) {
      int32x4_t acc_lo = vdupq_n_s32(0);
      int32x4_t acc_hi = vdupq_n_s32(0);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const int16x8_t bv = vmovl_s8(vld1_s8(b + kk * n + j0));
        const int16x8_t prod = vmulq_n_s16(bv, arow[kk]);
        acc_lo = vaddw_s16(acc_lo, vget_low_s16(prod));
        acc_hi = vaddw_s16(acc_hi, vget_high_s16(prod));
      }
      vst1q_s32(crow + j0, vaddq_s32(vld1q_s32(crow + j0), acc_lo));
      vst1q_s32(crow + j0 + 4, vaddq_s32(vld1q_s32(crow + j0 + 4), acc_hi));
    }
    for (std::size_t j = n8; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(arow[kk]) *
               static_cast<std::int32_t>(b[kk * n + j]);
      }
      crow[j] += acc;
    }
  }
}

constexpr KernelSet kNeon{
    "neon", gemm_neon, gemm_nt_neon, vmm_neon, gemm_s8_neon,
};

}  // namespace

const KernelSet* neon_kernels() { return &kNeon; }

}  // namespace xbarlife::kernels

#else  // !aarch64 NEON

namespace xbarlife::kernels {
const KernelSet* neon_kernels() { return nullptr; }
}  // namespace xbarlife::kernels

#endif
