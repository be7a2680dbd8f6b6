// tanh for every kernel variant, bit-identical to glibc's tanhf.
//
// tanh_reference() is a port of fdlibm's __tanhf over __expm1f, the
// algorithms glibc uses for the float tanh on every target. The scalar
// variant calls it directly. tanh_avx2() runs the same IEEE
// operations 8 lanes wide: every branch is computed and the results are
// blended per lane, and tail and non-finite lanes go to the reference.
// Both therefore return std::tanh's bits for every float input: like
// gemm_s8, and unlike the float GEMMs, tanh does not differ by variant.
//
// This file is built with -ffp-contract=off (src/tensor/CMakeLists.txt):
// a contracted mul+add rounds once instead of twice and moves the bits of
// 150,744 of the 2^32 inputs. tests/tanh_exhaustive.cpp sweeps them all.
//
// The original fdlibm notice, which the port keeps:
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace xbarlife::kernels {
namespace {

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
// Scaled coefficients of the expm1 rational approximation.
constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;   // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;   // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb

// |x| thresholds, as the bits of the float's magnitude.
constexpr std::uint32_t kHalfLn2 = 0x3eb17218;       // 0.5 ln2
constexpr std::uint32_t kThreeHalfLn2 = 0x3f851592;  // 1.5 ln2
constexpr std::uint32_t kExpm1Tiny = 0x33000000;     // 2^-25
constexpr std::uint32_t kTanhTiny = 0x24000000;      // 2^-55
constexpr std::uint32_t kOne = 0x3f800000;           // 1
constexpr std::uint32_t kTanhSaturates = 0x41b00000;  // 22
constexpr std::uint32_t kInf = 0x7f800000;

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float float_of(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

/// __expm1f for the arguments __tanhf passes: finite, in (-2, 0) or
/// [2, 44). The filters for huge, non-finite and large negative x and the
/// k == 1 and k == 128 reconstructions are unreachable there, so they are
/// left out; the rest keeps fdlibm's operations and order.
float expm1_reference(float x) {
  const std::uint32_t hx = bits_of(x) & 0x7fffffffu;
  const bool negative = (bits_of(x) >> 31) != 0;
  float c = 0.0f;
  int k = 0;
  if (hx > kHalfLn2) {
    float hi;
    float lo;
    if (hx < kThreeHalfLn2) {
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Tiny) {
    return x;
  }

  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) {
    return x - (x * e - hxs);
  }
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) {
    return 0.5f * (x - e) - 0.5f;
  }
  // Adds k to y's exponent (mod 2^32, as fdlibm's int32 add).
  const auto scale = [k](float y) {
    return float_of(bits_of(y) + (static_cast<std::uint32_t>(k) << 23));
  };
  if (k <= -2 || k > 56) {
    return scale(1.0f - (e - x)) - 1.0f;
  }
  if (k < 23) {
    t = float_of(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return scale(t - (e - x));
  }
  t = float_of(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return scale(y);
}

float tanh_one(float x) {
  const std::uint32_t ix = bits_of(x) & 0x7fffffffu;
  const bool negative = (bits_of(x) >> 31) != 0;
  if (ix >= kInf) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < kTanhSaturates) {
    if (ix == 0) {
      return x;
    }
    if (ix < kTanhTiny) {
      return x * (1.0f + x);
    }
    const float ax = float_of(ix);
    if (ix >= kOne) {
      const float t = expm1_reference(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_reference(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f - 1.0e-30f;  // rounds to 1
  }
  return negative ? -z : z;
}

}  // namespace

void tanh_reference(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = tanh_one(x[i]);
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

#define XB_AVX2 __attribute__((target("avx2")))

XB_AVX2 inline __m256i splat(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<int>(v));
}

XB_AVX2 inline __m256 blend(__m256i mask, __m256 if_true, __m256 if_false) {
  return _mm256_blendv_ps(if_false, if_true, _mm256_castsi256_ps(mask));
}

/// Adds k to each lane's exponent, as expm1_reference's `scale`.
XB_AVX2 inline __m256 scale(__m256 y, __m256i k) {
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

/// expm1_reference on 8 finite lanes of the tanh domain. Each lane's k is
/// chosen as the reference chooses it, every reconstruction is computed,
/// and the lane keeps the one its k selects. In that domain k == 1 never
/// occurs, and the 1.5 ln2 branch only ever gives k == -1.
XB_AVX2 inline __m256 expm1_avx2(__m256 x) {
  const __m256i hx =
      _mm256_and_si256(_mm256_castps_si256(x), splat(0x7fffffffu));
  const __m256 sign = _mm256_and_ps(x, _mm256_castsi256_ps(splat(0x80000000u)));
  const __m256i reduce = _mm256_cmpgt_epi32(hx, splat(kHalfLn2));
  const __m256i near = _mm256_cmpgt_epi32(splat(kThreeHalfLn2), hx);
  const __m256i k_far = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(kInvLn2), x),
      _mm256_or_ps(_mm256_set1_ps(0.5f), sign)));
  __m256i k = _mm256_blendv_epi8(k_far, splat(0xffffffffu), near);
  k = _mm256_and_si256(k, reduce);

  // With t = k, hi and lo equal the reference's for k = 0 and k = -1 too.
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(tk, _mm256_set1_ps(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 hfx = _mm256_mul_ps(_mm256_set1_ps(0.5f), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 p = _mm256_add_ps(_mm256_set1_ps(kQ4),
                           _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5)));
  p = _mm256_add_ps(_mm256_set1_ps(kQ3), _mm256_mul_ps(hxs, p));
  p = _mm256_add_ps(_mm256_set1_ps(kQ2), _mm256_mul_ps(hxs, p));
  p = _mm256_add_ps(_mm256_set1_ps(kQ1), _mm256_mul_ps(hxs, p));
  const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, p));
  const __m256 t = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(xr, t))));

  const __m256 r_k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, e)), half);
  const __m256 e_minus_x = _mm256_sub_ps(e, xr);
  const __m256 r_far =
      _mm256_sub_ps(scale(_mm256_sub_ps(one, e_minus_x), k), one);
  // 1 - 2^-k for 2 <= k < 23, and 2^-k for 23 <= k <= 56.
  const __m256 t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
      splat(0x3f800000u), _mm256_srlv_epi32(splat(0x1000000u), k)));
  const __m256 r_mid = scale(_mm256_sub_ps(t_mid, e_minus_x), k);
  const __m256 t_big = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  const __m256 r_big = scale(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, t_big)), one), k);

  const __m256i is_far =
      _mm256_or_si256(_mm256_cmpgt_epi32(splat(0xffffffffu), k),
                      _mm256_cmpgt_epi32(k, splat(56)));
  __m256 r = blend(_mm256_cmpgt_epi32(k, splat(22)), r_big, r_mid);
  r = blend(is_far, r_far, r);
  r = blend(_mm256_cmpeq_epi32(k, splat(0xffffffffu)), r_km1, r);
  r = blend(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), r_k0, r);
  return blend(_mm256_cmpgt_epi32(splat(kExpm1Tiny), hx), x, r);
}

}  // namespace

XB_AVX2 void tanh_avx2(const float* x, float* y, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 sign_bit = _mm256_castsi256_ps(splat(0x80000000u));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 ax = _mm256_andnot_ps(sign_bit, v);
    const __m256i ix = _mm256_castps_si256(ax);
    if (_mm256_movemask_ps(_mm256_castsi256_ps(
            _mm256_cmpgt_epi32(ix, splat(kInf - 1)))) != 0) {
      tanh_reference(x + i, y + i, 8);
      continue;
    }
    // |x| >= 1: z = 1 - 2 / (t + 2) with t = expm1(2|x|);
    // |x| < 1:  z = -t / (t + 2)    with t = expm1(-2|x|).
    const __m256i big = _mm256_cmpgt_epi32(ix, splat(kOne - 1));
    const __m256 two_ax = _mm256_mul_ps(two, ax);
    const __m256 t = expm1_avx2(
        blend(big, two_ax, _mm256_xor_ps(two_ax, sign_bit)));
    const __m256 q = _mm256_div_ps(
        blend(big, two, _mm256_xor_ps(t, sign_bit)), _mm256_add_ps(t, two));
    __m256 z = blend(big, _mm256_sub_ps(one, q), q);
    z = blend(_mm256_cmpgt_epi32(ix, splat(kTanhSaturates - 1)), one, z);
    z = _mm256_xor_ps(z, _mm256_and_ps(v, sign_bit));
    // x * (1 + x) below 2^-55, which also returns +-0 unchanged.
    z = blend(_mm256_cmpgt_epi32(splat(kTanhTiny), ix),
              _mm256_mul_ps(v, _mm256_add_ps(one, v)), z);
    _mm256_storeu_ps(y + i, z);
  }
  tanh_reference(x + i, y + i, n - i);
}

#undef XB_AVX2

#endif  // x86

}  // namespace xbarlife::kernels
