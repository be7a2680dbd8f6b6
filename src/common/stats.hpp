// Streaming and batch descriptive statistics.
//
// Used throughout the experiment harness to summarize weight distributions,
// quantization errors, tuning-iteration counts and aging trajectories.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xbarlife {

/// Welford-style single-pass accumulator for mean/variance.
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Batch summary with quantiles, computed from a copy of the data.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Computes a full Summary of `values`. Empty input yields a zero Summary.
Summary summarize(std::span<const double> values);

/// Linear-interpolation quantile of *sorted* data, q in [0,1].
double quantile_sorted(std::span<const double> sorted, double q);

/// Pearson skewness (third standardized moment); 0 for constant data.
double skewness(std::span<const double> values);

}  // namespace xbarlife
