#include "support/tensor_oracles.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xbarlife {

Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2 ||
      b.shape()[0] != a.shape()[1]) {
    throw ShapeError("matmul_naive operands " + a.shape().to_string() +
                     " x " + b.shape().to_string());
  }
  const std::size_t m = a.shape()[0];
  const std::size_t k = a.shape()[1];
  const std::size_t n = b.shape()[1];
  Tensor c(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
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
