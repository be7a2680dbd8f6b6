#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife {

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double quantile_sorted(std::span<const double> sorted, double q) {
  XB_CHECK(q >= 0.0 && q <= 1.0, "quantile q must lie in [0, 1]");
  if (sorted.empty()) {
    return 0.0;
  }
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

namespace {

Summary summarize_doubles(std::vector<double> data) {
  Summary s;
  s.count = data.size();
  if (data.empty()) {
    return s;
  }
  RunningStats rs;
  for (double x : data) {
    rs.add(x);
  }
  std::sort(data.begin(), data.end());
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = data.front();
  s.max = data.back();
  s.p25 = quantile_sorted(data, 0.25);
  s.median = quantile_sorted(data, 0.50);
  s.p75 = quantile_sorted(data, 0.75);
  s.p95 = quantile_sorted(data, 0.95);
  return s;
}

}  // namespace

Summary summarize(std::span<const double> values) {
  return summarize_doubles(std::vector<double>(values.begin(), values.end()));
}

double skewness(std::span<const double> values) {
  if (values.size() < 2) {
    return 0.0;
  }
  RunningStats rs;
  for (double x : values) {
    rs.add(x);
  }
  const double sd = rs.stddev();
  if (sd == 0.0) {
    return 0.0;
  }
  double m3 = 0.0;
  for (double x : values) {
    const double d = (x - rs.mean()) / sd;
    m3 += d * d * d;
  }
  return m3 / static_cast<double>(values.size());
}

}  // namespace xbarlife
