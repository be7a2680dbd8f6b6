#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife {
namespace {

TEST(RunningStats, EmptyState) {
  RunningStats rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(4.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 4.5);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    rs.add(x);
  }
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(Quantile, SortedInterpolation) {
  const std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.125), 0.5);
}

TEST(Quantile, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(one, 0.9), 7.0);
}

TEST(Quantile, RejectsOutOfRangeQ) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(quantile_sorted(v, -0.1), InvalidArgument);
  EXPECT_THROW(quantile_sorted(v, 1.1), InvalidArgument);
}

TEST(Summarize, FullSummary) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Summarize, EmptyYieldsZeros) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Skewness, SymmetricIsNearZero) {
  Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) {
    v.push_back(rng.gaussian());
  }
  EXPECT_NEAR(skewness(v), 0.0, 0.05);
}

TEST(Skewness, RightTailIsPositive) {
  Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) {
    v.push_back(std::exp(rng.gaussian()));  // lognormal: right-skewed
  }
  EXPECT_GT(skewness(v), 1.0);
}

TEST(Skewness, DegenerateCases) {
  EXPECT_DOUBLE_EQ(skewness(std::span<const double>{}), 0.0);
  const std::vector<double> constant{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(skewness(constant), 0.0);
}

}  // namespace
}  // namespace xbarlife
