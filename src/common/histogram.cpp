#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace xbarlife {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  XB_CHECK(bins >= 1, "histogram needs at least one bin");
  XB_CHECK(lo < hi, "histogram range must satisfy lo < hi");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / bin_width_);
  bin = std::min(bin, counts_.size() - 1);  // guard FP edge at hi
  ++counts_[bin];
}

void Histogram::add(std::span<const double> xs) {
  for (double x : xs) {
    add(x);
  }
}

void Histogram::add(std::span<const float> xs) {
  for (float x : xs) {
    add(static_cast<double>(x));
  }
}

std::size_t Histogram::count(std::size_t bin) const {
  XB_CHECK(bin < counts_.size(), "histogram bin out of range");
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  XB_CHECK(bin < counts_.size(), "histogram bin out of range");
  return lo_ + (static_cast<double>(bin) + 0.5) * bin_width_;
}

double Histogram::density(std::size_t bin) const {
  const std::size_t in_range = total_ - underflow_ - overflow_;
  if (in_range == 0) {
    return 0.0;
  }
  return static_cast<double>(count(bin)) / static_cast<double>(in_range);
}

std::string Histogram::render(std::size_t width) const {
  const std::size_t peak =
      counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream oss;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double c = bin_center(b);
    std::size_t bar = 0;
    if (peak > 0) {
      bar = static_cast<std::size_t>(std::llround(
          static_cast<double>(counts_[b]) * static_cast<double>(width) /
          static_cast<double>(peak)));
    }
    oss << "  ";
    oss.setf(std::ios::fixed);
    oss.precision(4);
    oss.width(12);
    oss << c << " |" << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  if (underflow_ > 0 || overflow_ > 0) {
    oss << "  (underflow " << underflow_ << ", overflow " << overflow_
        << ")\n";
  }
  return oss.str();
}

}  // namespace xbarlife
