#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[i], 0.0f);
  }
}

TEST(Tensor, FillConstructor) {
  Tensor t(Shape{4}, 2.5f);
  EXPECT_EQ(t[3], 2.5f);
}

TEST(Tensor, DataConstructorChecksSize) {
  EXPECT_NO_THROW(Tensor(Shape{2, 2}, std::vector<float>(4, 1.0f)));
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>(3, 1.0f)),
               InvalidArgument);
}

TEST(Tensor, TwoDAccessors) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at(1, 2), 7.0f);
  EXPECT_THROW(t.at(2, 0), InvalidArgument);
  Tensor r1(Shape{6});
  EXPECT_THROW(r1.at(0, 0), InvalidArgument);
}

TEST(Tensor, FourDAccessors) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 1.0f;
  EXPECT_EQ(t[t.numel() - 1], 1.0f);
  EXPECT_THROW(t.at(2, 0, 0, 0), InvalidArgument);
}

TEST(Tensor, ElementwiseInPlace) {
  Tensor a(Shape{3}, 5.0f);
  Tensor b(Shape{3}, 3.0f);
  a.mul_(b);
  EXPECT_EQ(a[0], 15.0f);
  a.scale_(0.5f);
  EXPECT_EQ(a[0], 7.5f);
}

TEST(Tensor, ElementwiseShapeMismatchThrows) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(a.mul_(b), ShapeError);
  EXPECT_THROW(a.mul(b), ShapeError);
}

TEST(Tensor, OutOfPlaceDoesNotMutate) {
  Tensor a(Shape{2}, 1.0f);
  Tensor b(Shape{2}, 2.0f);
  Tensor c = a.mul(b);
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(c[0], 2.0f);
}

TEST(Tensor, Reductions) {
  Tensor t(Shape{4}, std::vector<float>{1.0f, -5.0f, 3.0f, 2.0f});
  EXPECT_FLOAT_EQ(t.min(), -5.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
}

TEST(Tensor, RandomFills) {
  Rng rng(3);
  Tensor g(Shape{10000});
  g.fill_gaussian(rng, 1.0f, 2.0f);
  double sum = 0.0;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    sum += g[i];
  }
  EXPECT_NEAR(sum / static_cast<double>(g.numel()), 1.0, 0.1);
}

TEST(Tensor, Transpose) {
  Tensor t(Shape{2, 3},
           std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor tt = t.transposed();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_EQ(tt.at(0, 1), 4.0f);
  EXPECT_EQ(tt.at(2, 0), 3.0f);
  EXPECT_THROW(Tensor(Shape{2, 2, 2}).transposed(), InvalidArgument);
}

TEST(Tensor, AllClose) {
  Tensor a(Shape{2}, 1.0f);
  Tensor b(Shape{2}, 1.0f + 5e-6f);
  EXPECT_TRUE(allclose(a, b, 1e-5f));
  EXPECT_FALSE(allclose(a, b, 1e-7f));
  EXPECT_FALSE(allclose(a, Tensor(Shape{3}, 1.0f)));
}

}  // namespace
}  // namespace xbarlife
