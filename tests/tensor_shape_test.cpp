#include "tensor/shape.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace xbarlife {
namespace {

TEST(Shape, RankAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s[0], 2u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 4u);
}

TEST(Shape, Numel) {
  EXPECT_EQ((Shape{2, 3, 4}).numel(), 24u);
  EXPECT_EQ((Shape{5}).numel(), 5u);
  EXPECT_EQ(Shape{}.numel(), 1u);  // rank-0 scalar
  EXPECT_EQ((Shape{0, 4}).numel(), 0u);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
}

TEST(Shape, ToString) {
  EXPECT_EQ((Shape{2, 3}).to_string(), "[2, 3]");
  EXPECT_EQ(Shape{}.to_string(), "[]");
}

TEST(Shape, AxisOutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife
