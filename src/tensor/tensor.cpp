#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>

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

Tensor Tensor::mul(const Tensor& other) const {
  Tensor out = *this;
  out.mul_(other);
  return out;
}

float Tensor::min() const {
  XB_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  XB_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
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
