// Runtime-dispatched kernel layer: registry behavior, per-variant parity
// against the naive reference (including odd/tail shapes that stress the
// SIMD remainder paths), NaN/Inf/denormal propagation, the per-variant
// thread-count byte-identity contract, and tanh's bit identity with
// std::tanh on every variant.
#include "tensor/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "support/tensor_oracles.hpp"
#include "tensor/matmul.hpp"

namespace xbarlife {
namespace {

/// Restores the automatic dispatch choice when a test scope ends, so a
/// failing ASSERT in a pinned-variant test cannot leak its pin into later
/// tests.
struct KernelGuard {
  ~KernelGuard() { kernels::set_kernel("auto"); }
};

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t(Shape{rows, cols});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

/// A^T * B written into a fresh tensor by matmul_tn_into.
Tensor product_tn(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.shape()[1], b.shape()[1]});
  matmul_tn_into(a, b, c, /*accumulate=*/false);
  return c;
}

// --- registry ----------------------------------------------------------

TEST(KernelRegistry, ScalarIsAlwaysAvailable) {
  const auto names = kernels::available();
  EXPECT_NE(std::find(names.begin(), names.end(), "scalar"), names.end());
}

TEST(KernelRegistry, SetKernelSwitchesActiveVariant) {
  KernelGuard guard;
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    EXPECT_EQ(std::string(kernels::kernel_name()), name);
    EXPECT_EQ(std::string(kernels::select().name), name);
  }
}

TEST(KernelRegistry, UnknownVariantThrowsAndListsAvailable) {
  // "neon" is no variant: aarch64 runs scalar.
  for (const std::string name : {"mmx", "neon"}) {
    SCOPED_TRACE(name);
    try {
      kernels::set_kernel(name);
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(name), std::string::npos);
      EXPECT_NE(msg.find("scalar"), std::string::npos);
    }
    // A failed switch must leave the previous variant active.
    EXPECT_NE(std::string(kernels::kernel_name()), name);
  }
}

TEST(KernelRegistry, AutoRedetects) {
  KernelGuard guard;
  kernels::set_kernel("scalar");
  kernels::set_kernel("auto");
  const auto names = kernels::available();
  EXPECT_NE(std::find(names.begin(), names.end(), kernels::kernel_name()),
            names.end());
}

// --- per-variant parity vs the naive reference -------------------------

// Shapes chosen to cover SIMD edge cases: single row/col, widths around
// the 8-lane and 16-column boundaries, m around the 6-row microkernel,
// and k around the 256-deep cache block.
class KernelVariantSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {
 protected:
  void TearDown() override { kernels::set_kernel("auto"); }
};

TEST_P(KernelVariantSweep, MatmulMatchesNaivePerVariant) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7919 + k * 131 + n);
  const Tensor a = random_matrix(m, k, rng);
  const Tensor b = random_matrix(k, n, rng);
  kernels::set_kernel("scalar");
  const Tensor ref = matmul_naive(a, b);
  const float tol = 1e-4f * static_cast<float>(k);
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    EXPECT_TRUE(allclose(matmul(a, b), ref, tol))
        << name << " m=" << m << " k=" << k << " n=" << n;
    EXPECT_TRUE(allclose(matmul_nt(a, b.transposed()), ref, tol))
        << name << " (nt) m=" << m << " k=" << k << " n=" << n;
    EXPECT_TRUE(allclose(product_tn(a.transposed(), b), ref, tol))
        << name << " (tn) m=" << m << " k=" << k << " n=" << n;
  }
}

TEST_P(KernelVariantSweep, TransposedGemmHasTheBitsOfGemmOnTheTranspose) {
  // matmul_tn_into reads A from its (K x M) storage in the GEMM's own
  // order: written, it equals a GEMM into a zeroed C whatever C held;
  // accumulated, the variant's GEMM accumulating into C on the
  // materialized transpose.
  const auto [m, k, n] = GetParam();
  Rng rng(m * 31 + k * 7 + n);
  const Tensor at = random_matrix(k, m, rng);
  const Tensor b = random_matrix(k, n, rng);
  const Tensor c0 = random_matrix(m, n, rng);
  const auto same_bytes = [](const Tensor& x, const Tensor& y) {
    return x.shape() == y.shape() &&
           std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) == 0;
  };
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    const std::string label = name + " m=" + std::to_string(m) +
                              " k=" + std::to_string(k) +
                              " n=" + std::to_string(n);
    const Tensor written = matmul(at.transposed(), b);
    Tensor got = c0;
    matmul_tn_into(at, b, got, /*accumulate=*/false);
    EXPECT_TRUE(same_bytes(got, written)) << label << " written";
    Tensor accumulated = c0;
    kernels::select().gemm(at.transposed().data(), b.data(),
                           accumulated.data(), m, k, n, 0, m);
    got = c0;
    matmul_tn_into(at, b, got, /*accumulate=*/true);
    EXPECT_TRUE(same_bytes(got, accumulated)) << label << " accumulated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddAndTailShapes, KernelVariantSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 9, 17),
                      std::make_tuple(5, 3, 7),   // below every block size
                      std::make_tuple(6, 8, 16),  // exact microkernel tile
                      std::make_tuple(7, 9, 15),  // m, n, k all tails
                      std::make_tuple(13, 257, 31),  // k crosses the cache block
                      std::make_tuple(23, 17, 33),
                      std::make_tuple(64, 64, 64)));

// --- non-finite and denormal propagation per variant -------------------

class KernelVariantFixture : public ::testing::Test {
 protected:
  void TearDown() override { kernels::set_kernel("auto"); }
};

TEST_F(KernelVariantFixture, NonFinitePropagatesPerVariant) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // 9-wide so the AVX2 lane tail also sees the non-finite column.
  Tensor a(Shape{2, 9});
  Tensor b(Shape{9, 9});
  a.fill(1.0f);
  b.fill(1.0f);
  a.at(1, 8) = 0.0f;
  b.at(8, 0) = nan;
  b.at(8, 8) = inf;
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    const Tensor c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c.at(0, 0))) << name;   // 1 * nan
    EXPECT_TRUE(std::isinf(c.at(0, 8))) << name;   // 1 * inf
    EXPECT_TRUE(std::isnan(c.at(1, 0))) << name;   // 0 * nan
    EXPECT_TRUE(std::isnan(c.at(1, 8))) << name;   // 0 * inf
    const Tensor cnt = matmul_nt(a, b.transposed());
    EXPECT_TRUE(std::isnan(cnt.at(1, 0))) << name << " (nt)";
    const Tensor ctn = product_tn(a.transposed(), b);
    EXPECT_TRUE(std::isnan(ctn.at(0, 0))) << name << " (tn)";
  }
}

TEST_F(KernelVariantFixture, DenormalsSurvivePerVariant) {
  // denorm * 1 must not be flushed to zero by any variant (the build
  // does not enable FTZ/DAZ); the sum of eight denormal products is
  // still denormal and must round-trip.
  const float denorm = std::numeric_limits<float>::denorm_min();
  Tensor a(Shape{1, 8});
  Tensor b(Shape{8, 1});
  a.fill(1.0f);
  b.fill(denorm);
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 8.0f * denorm) << name;
    EXPECT_GT(c.at(0, 0), 0.0f) << name;
  }
}

// --- thread-count byte-identity per variant ----------------------------

TEST_F(KernelVariantFixture, ThreadCountByteIdentityPerVariant) {
  Rng rng(42);
  // 97 rows: enough to split across 4 threads with uneven chunks.
  const Tensor a = random_matrix(97, 65, rng);
  const Tensor b = random_matrix(65, 43, rng);
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    set_parallel_threads(1);
    const Tensor serial = matmul(a, b);
    const Tensor serial_nt = matmul_nt(a, b.transposed());
    const Tensor serial_tn = product_tn(a.transposed(), b);
    for (const std::size_t threads : {2u, 4u}) {
      set_parallel_threads(threads);
      EXPECT_TRUE(matmul(a, b) == serial) << name << " t=" << threads;
      EXPECT_TRUE(matmul_nt(a, b.transposed()) == serial_nt)
          << name << " t=" << threads;
      EXPECT_TRUE(product_tn(a.transposed(), b) == serial_tn)
          << name << " t=" << threads;
    }
    set_parallel_threads(1);
  }
}

// --- int8 kernel: exact across variants --------------------------------

TEST_F(KernelVariantFixture, Int8GemmExactAcrossVariants) {
  Rng rng(7);
  const std::size_t m = 5, k = 37, n = 19;  // odd tails everywhere
  std::vector<std::int8_t> a(m * k), b(k * n);
  for (auto& v : a) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto& v : b) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  // Reference: plain int arithmetic (exact, order-free).
  std::vector<std::int32_t> ref(m * n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        ref[i * n + j] += static_cast<std::int32_t>(a[i * k + kk]) *
                          static_cast<std::int32_t>(b[kk * n + j]);
      }
    }
  }
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    std::vector<std::int32_t> c(m * n, 0);
    kernels::select().gemm_s8(a.data(), b.data(), c.data(), m, k, n, 0, m);
    EXPECT_EQ(c, ref) << name;  // integer accumulate: exact, not approx
  }
}

// --- tanh: std::tanh's bits on every variant ---------------------------

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float float_of(std::uint32_t u) {
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

/// Checks tanh_reference against std::tanh and every available variant
/// against tanh_reference, bit for bit, reporting the first mismatch of
/// each.
void expect_tanh_bits(const std::vector<float>& x) {
  std::vector<float> libm(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    libm[i] = std::tanh(x[i]);
  }
  std::vector<float> ref(x.size());
  kernels::tanh_reference(x.data(), ref.data(), x.size());
  const auto expect_same = [&](const std::vector<float>& got,
                               const std::vector<float>& want,
                               const std::string& what) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (bits_of(got[i]) != bits_of(want[i])) {
        ADD_FAILURE() << what << ": tanh(0x" << std::hex << bits_of(x[i])
                      << ") = 0x" << bits_of(got[i]) << ", want 0x"
                      << bits_of(want[i]);
        return;
      }
    }
  };
  expect_same(ref, libm, "reference vs std::tanh");
  for (const std::string& name : kernels::available()) {
    kernels::set_kernel(name);
    std::vector<float> got(x.size());
    kernels::select().tanh(x.data(), got.data(), x.size());
    expect_same(got, ref, name + " vs reference");
    expect_same(got, libm, name + " vs std::tanh");
  }
}

TEST_F(KernelVariantFixture, TanhBitsStridedSweep) {
  // Every 1021st bit pattern (a prime stride, so mantissas vary too):
  // about 4.2M inputs over both signs, every exponent, and NaN payloads.
  constexpr std::uint64_t kStride = 1021;
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<float> x;
  x.reserve(kChunk);
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += kStride) {
    x.push_back(float_of(static_cast<std::uint32_t>(u)));
    if (x.size() == kChunk) {
      expect_tanh_bits(x);
      x.clear();
    }
  }
  expect_tanh_bits(x);
}

TEST_F(KernelVariantFixture, TanhBitsAtBranchBoundaries) {
  // The thresholds of __tanhf (2^-55, 1, 22) and, at the doubled argument
  // expm1 sees, of __expm1f (2^-25, 0.5 ln2, 1.5 ln2), with neighbours.
  const std::uint32_t named[] = {
      0x00000000, 0x00000001, 0x24000000, 0x32800000, 0x33000000,
      0x3e317218, 0x3eb17218, 0x3f051592, 0x3f851592, 0x3f800000,
      0x41b00000, 0x7f7fffff, 0x7f800000, 0x7fc00000, 0x7f800001};
  std::vector<float> x;
  for (const std::uint32_t u : named) {
    for (const std::uint32_t v : {u - 1, u, u + 1}) {
      x.push_back(float_of(v));
      x.push_back(float_of(v ^ 0x80000000u));
    }
  }
  expect_tanh_bits(x);
}

TEST_F(KernelVariantFixture, TanhTailLengths) {
  // Lengths 0..17 cover an empty call, a pure tail, one and two 8-lane
  // blocks with every tail length; the variant must not write past n.
  Rng rng(21);
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<float> x(n);
    for (float& v : x) {
      v = static_cast<float>(rng.uniform(-4.0, 4.0));
    }
    if (n > 3) {
      x[n / 2] = std::numeric_limits<float>::infinity();
      x[n - 1] = std::numeric_limits<float>::quiet_NaN();
    }
    expect_tanh_bits(x);
    for (const std::string& name : kernels::available()) {
      kernels::set_kernel(name);
      std::vector<float> y(n + 8, 7.0f);
      kernels::select().tanh(x.data(), y.data(), n);
      for (std::size_t i = n; i < y.size(); ++i) {
        EXPECT_EQ(y[i], 7.0f) << name << " wrote past n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace xbarlife
