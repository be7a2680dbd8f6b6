// Branch-free polynomial sine for the synthetic renderer's texture rows.
//
// fdlibm's reduction and kernels (__ieee754_rem_pio2, __kernel_sin,
// __kernel_cos), cut down to what a loop can vectorize: the guard
// |a| <= 8192 keeps the quadrant count n below 2^13, so a 3-part
// Cody-Waite reduction by pi/2 (n*P1 and n*P2 exact, r1 = a - n*P1 exact)
// needs no table and no branch, and the 1.5*2^52 shifter rounds a*2/pi to
// n while leaving n's low bits in the double's mantissa for the quadrant.
// The result stays within 2^-52 of glibc's sin on the guarded range
// (tests/data_test.cpp asserts 2^-50); it is not bit-exact, which is why
// data/synthetic.cpp certifies each pixel before storing it (see
// docs/kernels.md "Synthetic datasets"). Internal to the data library.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace xbarlife::data::detail {

/// Largest |a| poly_sin_row evaluates by polynomial; larger arguments
/// (and NaN) get std::sin.
inline constexpr double kPolySinGuard = 8192.0;

/// sin(a) for |a| <= kPolySinGuard; meaningless beyond it.
inline double poly_sin_guarded(double a) {
  constexpr double kShifter = 0x1.8p52;
  constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
  constexpr double kPio2_1 = 0x1.921fb54400000p+0;
  constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
  constexpr double kPio2_3 = 0x1.3198a2e037073p-69;
  constexpr double kS1 = -0x1.5555555555549p-3;
  constexpr double kS2 = 0x1.111111110f8a6p-7;
  constexpr double kS3 = -0x1.a01a019c161d5p-13;
  constexpr double kS4 = 0x1.71de357b1fe7dp-19;
  constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
  constexpr double kC1 = 0x1.555555555554cp-5;
  constexpr double kC2 = -0x1.6c16c16c15177p-10;
  constexpr double kC3 = 0x1.a01a019cb1590p-16;
  constexpr double kC4 = -0x1.27e4f809c52adp-22;
  constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double kC6 = -0x1.8fae9be8838d4p-37;

  const double t = a * kInvPio2 + kShifter;
  const double n = t - kShifter;
  const double r = ((a - n * kPio2_1) - n * kPio2_2) - n * kPio2_3;
  const double z = r * r;
  // __kernel_sin(r, 0, 0) and __kernel_cos(r, 0) on |r| <= pi/4.
  const double sin_r =
      r + z * r * (kS1 + z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)))));
  const double cos_poly =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  const double cos_r = w + (((1.0 - w) - hz) + z * cos_poly);
  // Quadrant n mod 4 from the shifted mantissa: odd picks cos, bit 1
  // flips the sign.
  const std::uint64_t q = std::bit_cast<std::uint64_t>(t);
  const std::uint64_t odd = std::uint64_t{0} - (q & 1U);
  const std::uint64_t bits = (std::bit_cast<std::uint64_t>(cos_r) & odd) |
                             (std::bit_cast<std::uint64_t>(sin_r) & ~odd);
  return std::bit_cast<double>(bits ^ ((q & 2U) << 62));
}

/// out[i] = sin(a[i]) for i < n: the polynomial on guarded arguments,
/// std::sin's bits on the rest.
inline void poly_sin_row(const double* a, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = poly_sin_guarded(a[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(std::fabs(a[i]) <= kPolySinGuard)) {
      out[i] = std::sin(a[i]);
    }
  }
}

}  // namespace xbarlife::data::detail
