#include "tensor/matmul.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "support/tensor_oracles.hpp"

namespace xbarlife {
namespace {

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

TEST(Matmul, SmallKnownProduct) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNoop) {
  Rng rng(1);
  Tensor a = random_matrix(5, 5, rng);
  Tensor eye(Shape{5, 5});
  for (std::size_t i = 0; i < 5; ++i) {
    eye.at(i, i) = 1.0f;
  }
  EXPECT_TRUE(allclose(matmul(a, eye), a, 1e-5f));
  EXPECT_TRUE(allclose(matmul(eye, a), a, 1e-5f));
}

TEST(Matmul, ShapeErrors) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 2});
  EXPECT_THROW(matmul(a, b), ShapeError);
  EXPECT_THROW(matmul(Tensor(Shape{6}), a), ShapeError);
}

TEST(Matmul, AccumulateAddsIntoC) {
  Rng rng(2);
  Tensor a = random_matrix(4, 3, rng);  // (K x M)
  Tensor b = random_matrix(4, 5, rng);  // (K x N)
  Tensor c(Shape{3, 5}, 1.0f);
  matmul_tn_into(a, b, c, /*accumulate=*/true);
  Tensor expected = matmul(a.transposed(), b);
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], expected[i] + 1.0f, 1e-4f);
  }
}

TEST(Matmul, TnMatchesExplicitTranspose) {
  Rng rng(3);
  Tensor a = random_matrix(6, 4, rng);  // (K x M)
  Tensor b = random_matrix(6, 5, rng);  // (K x N)
  Tensor expected = matmul(a.transposed(), b);
  EXPECT_TRUE(allclose(product_tn(a, b), expected, 1e-4f));
}

TEST(Matmul, NtMatchesExplicitTranspose) {
  Rng rng(4);
  Tensor a = random_matrix(3, 6, rng);  // (M x K)
  Tensor b = random_matrix(5, 6, rng);  // (N x K)
  Tensor expected = matmul(a, b.transposed());
  EXPECT_TRUE(allclose(matmul_nt(a, b), expected, 1e-4f));
}

TEST(Matmul, SparseRowsSkippedCorrectly) {
  // The kernels multiply straight through zeros (no zero-skip since the
  // dispatch rewrite); sparse inputs must still match the reference.
  Rng rng(5);
  Tensor a = random_matrix(8, 8, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    a.at(2, i) = 0.0f;
    a.at(i, 3) = 0.0f;
  }
  Tensor b = random_matrix(8, 8, rng);
  EXPECT_TRUE(allclose(matmul(a, b), matmul_naive(a, b), 1e-4f));
}

TEST(Matmul, NonFiniteBPropagatesDespiteZeroSkip) {
  // Regression: the old blocked kernel's zero-skip (and the all_finite(b)
  // pre-scan that papered over it) used to swallow 0 * inf and 0 * nan.
  // The dispatched kernels multiply through zeros, so propagation holds
  // by construction — this pins it.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(Shape{2, 2}, std::vector<float>{0, 1, 0, 0});
  Tensor b(Shape{2, 2}, std::vector<float>{nan, 2, 3, inf});
  const Tensor fast = matmul(a, b);
  const Tensor ref = matmul_naive(a, b);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.numel(); ++i) {
    EXPECT_EQ(std::isnan(fast[i]), std::isnan(ref[i])) << "i=" << i;
    if (!std::isnan(ref[i])) {
      EXPECT_FLOAT_EQ(fast[i], ref[i]) << "i=" << i;
    }
  }
  // c(0,0) = 0*nan + 1*3: the 0*nan term alone makes it nan — exactly the
  // contribution the zero-skip used to drop.
  EXPECT_TRUE(std::isnan(fast.at(0, 0)));
  // Row 1 is all zeros against a non-finite B: 0*nan and 0*inf are nan.
  EXPECT_TRUE(std::isnan(fast.at(1, 0)));
  EXPECT_TRUE(std::isnan(fast.at(1, 1)));
}

TEST(Matmul, NonFiniteBPropagatesInTn) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(Shape{2, 2}, std::vector<float>{0, 1, 0, 2});  // a^T has zeros
  Tensor b(Shape{2, 2}, std::vector<float>{inf, 1, 2, 3});
  const Tensor got = product_tn(a, b);
  const Tensor ref = matmul_naive(a.transposed(), b);
  for (std::size_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(std::isnan(got[i]), std::isnan(ref[i])) << "i=" << i;
    EXPECT_EQ(std::isinf(got[i]), std::isinf(ref[i])) << "i=" << i;
  }
}

TEST(Matmul, ParallelMatchesSerialBitwise) {
  // The kernels partition work by fixed grains and write disjoint slices,
  // so any thread count must produce bit-identical results.
  Rng rng(123);
  Tensor a = random_matrix(67, 41, rng);
  Tensor b = random_matrix(41, 53, rng);
  set_parallel_threads(1);
  const Tensor serial = matmul(a, b);
  const Tensor serial_tn = product_tn(a.transposed(), b);
  const Tensor serial_nt = matmul_nt(a, b.transposed());
  set_parallel_threads(4);
  EXPECT_TRUE(matmul(a, b) == serial);
  EXPECT_TRUE(product_tn(a.transposed(), b) == serial_tn);
  EXPECT_TRUE(matmul_nt(a, b.transposed()) == serial_nt);
  set_parallel_threads(1);
}

TEST(Matmul, LargeProductInsideFanOutMatchesSerial) {
  // 2*m*k*n is above the serial-flop threshold, so outside a region the
  // product would split into row chunks; inside a fan-out it runs inline
  // and must neither wait on the busy pool nor change a bit.
  Rng rng(321);
  const Tensor a = random_matrix(128, 160, rng);
  const Tensor b = random_matrix(160, 256, rng);
  set_parallel_threads(1);
  const Tensor serial = matmul(a, b);
  set_parallel_threads(4);
  std::vector<Tensor> nested(4);
  parallel_for(0, nested.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      nested[i] = matmul(a, b);
    }
  });
  for (const Tensor& t : nested) {
    EXPECT_TRUE(t == serial);
  }
  set_parallel_threads(1);
}

// Property sweep: blocked kernel == naive reference over assorted sizes,
// including sizes around the blocking boundaries (32, 64).
class MatmulSizeSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(MatmulSizeSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 100 + n);
  Tensor a = random_matrix(m, k, rng);
  Tensor b = random_matrix(k, n, rng);
  Tensor fast = matmul(a, b);
  Tensor ref = matmul_naive(a, b);
  const float tol =
      1e-4f * static_cast<float>(k);  // fp accumulation slack
  EXPECT_TRUE(allclose(fast, ref, tol))
      << "m=" << m << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulSizeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(7, 1, 7), std::make_tuple(16, 16, 16),
                      std::make_tuple(31, 33, 29), std::make_tuple(32, 64, 32),
                      std::make_tuple(33, 65, 31), std::make_tuple(64, 64, 1),
                      std::make_tuple(100, 50, 75),
                      std::make_tuple(5, 128, 5)));

}  // namespace
}  // namespace xbarlife
