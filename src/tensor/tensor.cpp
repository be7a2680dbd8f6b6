#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace xbarlife {

Tensor::Tensor() : shape_(Shape{}), data_(1, 0.0f) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_.numel(), 0.0f) {}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shape_.numel(), value) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  XB_CHECK(data_.size() == shape_.numel(),
           "tensor data size must match shape " + shape_.to_string());
}

float& Tensor::operator[](std::size_t i) {
  XB_CHECK(i < data_.size(), "tensor flat index out of range");
  return data_[i];
}

float Tensor::operator[](std::size_t i) const {
  XB_CHECK(i < data_.size(), "tensor flat index out of range");
  return data_[i];
}

float& Tensor::at(std::size_t r, std::size_t c) {
  XB_CHECK(shape_.rank() == 2, "2-D accessor on tensor " + shape_.to_string());
  XB_CHECK(r < shape_[0] && c < shape_[1], "2-D index out of range");
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor&>(*this).at(r, c);
}

float& Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) {
  XB_CHECK(shape_.rank() == 4, "4-D accessor on tensor " + shape_.to_string());
  XB_CHECK(n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3],
           "4-D index out of range");
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return const_cast<Tensor&>(*this).at(n, c, h, w);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  XB_CHECK(new_shape.numel() == numel(),
           "reshape must preserve element count: " + shape_.to_string() +
               " -> " + new_shape.to_string());
  Tensor out(std::move(new_shape), data_);
  return out;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw ShapeError(std::string(op) + ": shape mismatch " +
                     a.shape().to_string() + " vs " + b.shape().to_string());
  }
}
}  // namespace

Tensor& Tensor::add_(const Tensor& other) {
  check_same_shape(*this, other, "add");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  check_same_shape(*this, other, "sub");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  check_same_shape(*this, other, "mul");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] *= other.data_[i];
  }
  return *this;
}

Tensor& Tensor::scale_(float s) {
  for (float& x : data_) {
    x *= s;
  }
  return *this;
}

Tensor Tensor::add(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::sub(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::mul(const Tensor& other) const {
  Tensor out = *this;
  out.mul_(other);
  return out;
}

Tensor Tensor::scaled(float s) const {
  Tensor out = *this;
  out.scale_(s);
  return out;
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float x : data_) {
    acc += x;
  }
  return static_cast<float>(acc);
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float x : data_) {
    m = std::max(m, std::fabs(x));
  }
  return m;
}

float Tensor::min() const {
  XB_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  XB_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const {
  XB_CHECK(!data_.empty(), "argmax of empty tensor");
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

void Tensor::fill_gaussian(Rng& rng, float mean, float stddev) {
  for (float& x : data_) {
    x = static_cast<float>(rng.gaussian(mean, stddev));
  }
}

Tensor Tensor::transposed() const {
  XB_CHECK(shape_.rank() == 2, "transpose requires a rank-2 tensor");
  const std::size_t rows = shape_[0];
  const std::size_t cols = shape_[1];
  Tensor out(Shape{cols, rows});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out.data_[c * rows + r] = data_[r * cols + c];
    }
  }
  return out;
}

std::string Tensor::to_string(std::size_t max_elems) const {
  std::ostringstream oss;
  oss << "Tensor" << shape_.to_string() << " {";
  const std::size_t n = std::min(max_elems, data_.size());
  for (std::size_t i = 0; i < n; ++i) {
    oss << (i ? ", " : "") << data_[i];
  }
  if (n < data_.size()) {
    oss << ", ...";
  }
  oss << "}";
  return oss.str();
}

bool allclose(const Tensor& a, const Tensor& b, float tol) {
  if (a.shape() != b.shape()) {
    return false;
  }
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) {
      return false;
    }
  }
  return true;
}

}  // namespace xbarlife
