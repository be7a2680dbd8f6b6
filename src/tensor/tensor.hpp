// Dense row-major float tensor.
//
// This is the numerical workhorse underneath the neural-network substrate
// and the crossbar simulator. It is deliberately a simple owning value type
// (Rule of Zero): copies copy data, moves are cheap, and views are expressed
// as std::span over the flat storage.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/shape.hpp"

namespace xbarlife {

class Tensor {
 public:
  /// Empty (rank-0, one element) tensor.
  Tensor();
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor filled with `value`.
  Tensor(Shape shape, float value);
  /// Tensor wrapping a copy of `values`; size must match shape.numel().
  Tensor(Shape shape, std::vector<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i);
  float operator[](std::size_t i) const;

  /// 2-D accessors (checked): requires rank 2.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  /// 4-D accessors (checked): requires rank 4 (N, C, H, W).
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// In-place elementwise operations.
  Tensor& mul_(const Tensor& other);
  Tensor& scale_(float s);

  /// Out-of-place multiply.
  Tensor mul(const Tensor& other) const;

  float min() const;
  float max() const;

  /// Fills with N(mean, stddev) draws.
  void fill_gaussian(Rng& rng, float mean, float stddev);

  /// Rank-2 transpose.
  Tensor transposed() const;

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// True when every element differs by at most `tol`. Shape mismatch -> false.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5f);

}  // namespace xbarlife
