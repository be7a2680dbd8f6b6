#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace xbarlife {
namespace {

TEST(Histogram, BinsSamplesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 9
  h.add(5.0);   // bin 5
  h.add(5.5);   // bin 5
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderOverflowTracked) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi is exclusive
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(2), 1u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 3.5);
}

TEST(Histogram, DensitySumsToOne) {
  Histogram h(0.0, 1.0, 8);
  for (int i = 0; i < 100; ++i) {
    h.add(static_cast<double>(i % 10) / 10.0);
  }
  double total = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    total += h.density(b);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, DensityOfEmptyIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.density(0), 0.0);
}

TEST(Histogram, SpanOverloads) {
  Histogram h(0.0, 1.0, 2);
  const std::vector<double> d{0.1, 0.6, 0.2};
  h.add(d);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Histogram, RenderContainsBarsAndCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1);
  h.add(0.1);
  h.add(0.9);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find(" 2"), std::string::npos);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(Histogram, BinIndexOutOfRangeThrows) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW(h.count(4), InvalidArgument);
  EXPECT_THROW(h.bin_center(9), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife
