// Tensor oracles for the tests: a triple-loop GEMM reference and an
// elementwise tolerance compare.
#pragma once

#include "tensor/tensor.hpp"

namespace xbarlife {

/// Reference triple-loop GEMM that validates the dispatched kernels:
/// C = A(MxK) * B(KxN), float accumulators in ascending-k order, the same
/// policy as the kernels (see tensor/matmul.hpp), so it is the
/// order-exact reference for the scalar variant.
Tensor matmul_naive(const Tensor& a, const Tensor& b);

/// True when every element differs by at most `tol`. Shape mismatch -> false.
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5f);

}  // namespace xbarlife
