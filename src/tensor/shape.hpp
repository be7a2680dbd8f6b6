// Tensor shape algebra.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace xbarlife {

/// Dense row-major shape: dims_[0] is the slowest-varying dimension.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims);
  explicit Shape(std::vector<std::size_t> dims);

  std::size_t rank() const { return dims_.size(); }
  std::size_t dim(std::size_t axis) const;
  std::size_t operator[](std::size_t axis) const { return dim(axis); }

  /// Total number of elements; 1 for a rank-0 (scalar) shape.
  std::size_t numel() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// "[2, 3, 4]"
  std::string to_string() const;

  const std::vector<std::size_t>& dims() const { return dims_; }

 private:
  std::vector<std::size_t> dims_;
};

}  // namespace xbarlife
