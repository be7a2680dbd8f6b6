// Fixed-bin histogram with ASCII rendering.
//
// The paper's Figs. 3, 6 and 9 are weight/resistance/conductance
// distributions; the bench harness reproduces them as histograms printed to
// the console and written to CSV.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace xbarlife {

class Histogram {
 public:
  /// Creates `bins` equal-width bins covering [lo, hi). Requires bins >= 1
  /// and lo < hi. Samples outside the range are counted in underflow /
  /// overflow and excluded from the bins.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add(std::span<const double> xs);
  void add(std::span<const float> xs);

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t count(std::size_t bin) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  /// Center of bin `bin`.
  double bin_center(std::size_t bin) const;
  /// Fraction of in-range samples landing in `bin`; 0 when empty.
  double density(std::size_t bin) const;

  /// Multi-line ASCII bar chart, `width` characters for the largest bar.
  std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace xbarlife
