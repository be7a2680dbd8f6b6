// AVX2+FMA kernel variant. Compiled with -mavx2 -mfma on x86 targets
// only (see src/tensor/CMakeLists.txt); on other targets the whole body
// compiles away and avx2_kernels() returns nullptr so the registry never
// offers it. The registry additionally gates on runtime CPUID, so this
// code never executes on a CPU without AVX2+FMA.
#include "tensor/kernels/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace xbarlife::kernels {
namespace {

// GEBP-style blocking: an MR x NR register tile over a packed KC-deep
// panel of B. NR = 16 floats = two ymm registers; with MR = 6 the tile
// uses 12 accumulator registers plus 2 for B and 1 broadcast — within
// the 16 ymm budget.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;

// Sliding-window mask table: loading 8 lanes starting at (8 - active)
// yields `active` leading -1 lanes followed by zeros.
alignas(32) constexpr std::int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1,
                                                     -1, -1, 0,  0,  0,  0,
                                                     0,  0,  0,  0};

inline __m256i tail_mask(std::size_t active) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - active));
}

/// Packs B[k0:k1, j0:j0+width] into a (k1-k0) x kNr column panel,
/// zero-padding the lanes past `width`. Zero pad lanes are safe: the
/// store side never writes them, and 0 * a stays confined to the lane.
inline void pack_b(const float* b, float* panel, std::size_t n,
                   std::size_t k0, std::size_t k1, std::size_t j0,
                   std::size_t width) {
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const float* src = b + kk * n + j0;
    float* dst = panel + (kk - k0) * kNr;
    std::size_t j = 0;
    for (; j < width; ++j) {
      dst[j] = src[j];
    }
    for (; j < kNr; ++j) {
      dst[j] = 0.0f;
    }
  }
}

/// rows x kNr register tile: C[i0:i0+rows, j0:j0+width] += A-slice times
/// the packed panel. Every output element is an ascending-k FMA chain —
/// the order depends only on (k, blocking constants), never on how the
/// caller partitioned rows, so results are bit-identical at any thread
/// count.
///
/// The accumulators are individually named __m256 locals on purpose:
/// with `__m256 acc[kRows]` arrays gcc keeps the tile in stack memory
/// and interchanges the loops, turning the register tile into a
/// load-FMA-store stream at a third of the throughput. Named locals +
/// if constexpr pin all 12 accumulators in ymm registers.
template <std::size_t kRows>
inline void micro_kernel(const float* a, const float* panel, float* c,
                         std::size_t k, std::size_t n, std::size_t i0,
                         std::size_t j0, std::size_t k0, std::size_t kc,
                         std::size_t width) {
  static_assert(kRows >= 1 && kRows <= kMr);
  const __m256 zero = _mm256_setzero_ps();
  __m256 c0l = zero, c0h = zero, c1l = zero, c1h = zero;
  __m256 c2l = zero, c2h = zero, c3l = zero, c3h = zero;
  __m256 c4l = zero, c4h = zero, c5l = zero, c5h = zero;
  const float* ap = a + i0 * k + k0;
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b_lo = _mm256_load_ps(panel + kk * kNr);
    const __m256 b_hi = _mm256_load_ps(panel + kk * kNr + 8);
    __m256 a_bc = _mm256_broadcast_ss(ap + kk);
    c0l = _mm256_fmadd_ps(a_bc, b_lo, c0l);
    c0h = _mm256_fmadd_ps(a_bc, b_hi, c0h);
    if constexpr (kRows > 1) {
      a_bc = _mm256_broadcast_ss(ap + k + kk);
      c1l = _mm256_fmadd_ps(a_bc, b_lo, c1l);
      c1h = _mm256_fmadd_ps(a_bc, b_hi, c1h);
    }
    if constexpr (kRows > 2) {
      a_bc = _mm256_broadcast_ss(ap + 2 * k + kk);
      c2l = _mm256_fmadd_ps(a_bc, b_lo, c2l);
      c2h = _mm256_fmadd_ps(a_bc, b_hi, c2h);
    }
    if constexpr (kRows > 3) {
      a_bc = _mm256_broadcast_ss(ap + 3 * k + kk);
      c3l = _mm256_fmadd_ps(a_bc, b_lo, c3l);
      c3h = _mm256_fmadd_ps(a_bc, b_hi, c3h);
    }
    if constexpr (kRows > 4) {
      a_bc = _mm256_broadcast_ss(ap + 4 * k + kk);
      c4l = _mm256_fmadd_ps(a_bc, b_lo, c4l);
      c4h = _mm256_fmadd_ps(a_bc, b_hi, c4h);
    }
    if constexpr (kRows > 5) {
      a_bc = _mm256_broadcast_ss(ap + 5 * k + kk);
      c5l = _mm256_fmadd_ps(a_bc, b_lo, c5l);
      c5h = _mm256_fmadd_ps(a_bc, b_hi, c5h);
    }
  }
  const std::size_t lo_active = width < 8 ? width : 8;
  const std::size_t hi_active = width > 8 ? width - 8 : 0;
  const __m256i m_lo = tail_mask(lo_active);
  const __m256i m_hi = tail_mask(hi_active);
  const __m256 acc_lo[kMr] = {c0l, c1l, c2l, c3l, c4l, c5l};
  const __m256 acc_hi[kMr] = {c0h, c1h, c2h, c3h, c4h, c5h};
  for (std::size_t r = 0; r < kRows; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    const __m256 c_lo = _mm256_maskload_ps(crow, m_lo);
    _mm256_maskstore_ps(crow, m_lo, _mm256_add_ps(c_lo, acc_lo[r]));
    if (hi_active > 0) {
      const __m256 c_hi = _mm256_maskload_ps(crow + 8, m_hi);
      _mm256_maskstore_ps(crow + 8, m_hi, _mm256_add_ps(c_hi, acc_hi[r]));
    }
  }
}

void gemm_avx2(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, std::size_t row_begin,
               std::size_t row_end) {
  (void)m;
  alignas(32) float panel[kKc * kNr];
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t kc = (k0 + kKc < k ? k0 + kKc : k) - k0;
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t width = j0 + kNr < n ? kNr : n - j0;
      pack_b(b, panel, n, k0, k0 + kc, j0, width);
      std::size_t i = row_begin;
      for (; i + kMr <= row_end; i += kMr) {
        micro_kernel<kMr>(a, panel, c, k, n, i, j0, k0, kc, width);
      }
      switch (row_end - i) {
        case 1:
          micro_kernel<1>(a, panel, c, k, n, i, j0, k0, kc, width);
          break;
        case 2:
          micro_kernel<2>(a, panel, c, k, n, i, j0, k0, kc, width);
          break;
        case 3:
          micro_kernel<3>(a, panel, c, k, n, i, j0, k0, kc, width);
          break;
        case 4:
          micro_kernel<4>(a, panel, c, k, n, i, j0, k0, kc, width);
          break;
        case 5:
          micro_kernel<5>(a, panel, c, k, n, i, j0, k0, kc, width);
          break;
        default:
          break;
      }
    }
  }
}

/// Horizontal sum with a fixed lane-pairing order (identical for every
/// element, so per-variant determinism holds).
inline float hsum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

void gemm_nt_avx2(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, std::size_t row_begin,
                  std::size_t row_end) {
  (void)m;
  const std::size_t k8 = k - k % 8;
  const __m256i m_tail = tail_mask(k % 8);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t kk = 0; kk < k8; kk += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                              _mm256_loadu_ps(brow + kk), acc);
      }
      if (k8 < k) {
        const __m256 av = _mm256_maskload_ps(arow + k8, m_tail);
        const __m256 bv = _mm256_maskload_ps(brow + k8, m_tail);
        acc = _mm256_fmadd_ps(av, bv, acc);
      }
      crow[j] += hsum(acc);
    }
  }
}

void vmm_avx2(const float* v, const float* g, float* out, std::size_t rows,
              std::size_t cols, std::size_t col_begin, std::size_t col_end) {
  const std::size_t span = col_end - col_begin;
  const std::size_t body = span - span % 8;
  const __m256i m_tail = tail_mask(span % 8);
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256 vr = _mm256_broadcast_ss(v + r);
    const float* grow = g + r * cols + col_begin;
    float* orow = out + col_begin;
    for (std::size_t c = 0; c < body; c += 8) {
      _mm256_storeu_ps(orow + c,
                       _mm256_fmadd_ps(vr, _mm256_loadu_ps(grow + c),
                                       _mm256_loadu_ps(orow + c)));
    }
    if (body < span) {
      const __m256 gv = _mm256_maskload_ps(grow + body, m_tail);
      const __m256 ov = _mm256_maskload_ps(orow + body, m_tail);
      _mm256_maskstore_ps(orow + body, m_tail, _mm256_fmadd_ps(vr, gv, ov));
    }
  }
}

// Int8 GEMM. Deliberately avoids _mm256_maddubs_epi16, whose pairwise
// s16 sums saturate; cvtepi8_epi16 + mullo_epi16 keeps every product
// exact (|product| <= 128*128 < 2^15) before widening to s32, so the
// result is identical to the scalar variant for all inputs.
void gemm_s8_avx2(const std::int8_t* a, const std::int8_t* b,
                  std::int32_t* c, std::size_t m, std::size_t k,
                  std::size_t n, std::size_t row_begin, std::size_t row_end) {
  (void)m;
  const std::size_t n16 = n - n % 16;
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const std::int8_t* arow = a + i * k;
    std::int32_t* crow = c + i * n;
    for (std::size_t j0 = 0; j0 < n16; j0 += 16) {
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256i av = _mm256_set1_epi16(arow[kk]);
        const __m128i b8 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + kk * n + j0));
        const __m256i prod =
            _mm256_mullo_epi16(_mm256_cvtepi8_epi16(b8), av);
        acc0 = _mm256_add_epi32(
            acc0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
      }
      __m256i* c0 = reinterpret_cast<__m256i*>(crow + j0);
      __m256i* c1 = reinterpret_cast<__m256i*>(crow + j0 + 8);
      _mm256_storeu_si256(c0,
                          _mm256_add_epi32(_mm256_loadu_si256(c0), acc0));
      _mm256_storeu_si256(c1,
                          _mm256_add_epi32(_mm256_loadu_si256(c1), acc1));
    }
    for (std::size_t j = n16; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(arow[kk]) *
               static_cast<std::int32_t>(b[kk * n + j]);
      }
      crow[j] += acc;
    }
  }
}

constexpr KernelSet kAvx2{
    "avx2", gemm_avx2, gemm_nt_avx2, vmm_avx2, gemm_s8_avx2,
};

}  // namespace

const KernelSet* avx2_kernels() { return &kAvx2; }

}  // namespace xbarlife::kernels

#else  // !(__AVX2__ && __FMA__)

namespace xbarlife::kernels {
const KernelSet* avx2_kernels() { return nullptr; }
}  // namespace xbarlife::kernels

#endif
