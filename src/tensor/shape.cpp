#include "tensor/shape.hpp"

#include <sstream>

#include "common/error.hpp"

namespace xbarlife {

Shape::Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}

Shape::Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

std::size_t Shape::dim(std::size_t axis) const {
  XB_CHECK(axis < dims_.size(), "shape axis out of range: " + to_string());
  return dims_[axis];
}

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (std::size_t d : dims_) {
    n *= d;
  }
  return n;
}

std::string Shape::to_string() const {
  std::ostringstream oss;
  oss << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    oss << (i ? ", " : "") << dims_[i];
  }
  oss << "]";
  return oss.str();
}

}  // namespace xbarlife
