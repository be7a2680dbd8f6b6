// Matrix multiplication entry points.
//
// The training substrate and the ideal software path of the crossbar
// simulator both reduce to dense GEMM. All entry points dispatch to the
// runtime-selected kernel variant (see tensor/kernels/kernels.hpp):
// AVX2+FMA or the portable scalar fallback.
//
// Accumulation policy: float accumulators everywhere, in a fixed
// ascending-k order per output element. Every variant (including
// matmul_naive, the test reference) follows the same policy, so
// cross-variant drift is bounded by reassociation/FMA effects only —
// not by a precision mismatch. Results are bit-identical at any thread
// count per variant; pin XBARLIFE_KERNEL=scalar for host-independent
// bytes.
#pragma once

#include "tensor/tensor.hpp"

namespace xbarlife {

/// C = A(MxK) * B(KxN). All tensors rank-2; C is allocated by the call.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T * B — matmul(a.transposed(), b) with A read in place, never
/// transposed. a is (K x M), b is (K x N), result (M x N).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// matmul_tn into a preallocated (M x N) `c`: c = A^T * B, or c += A^T * B
/// with `accumulate` (the bits of matmul_accumulate(a.transposed(), b, c)).
/// Either way c is written in the GEMM's own pass, with no zero-fill.
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& c,
                    bool accumulate);

/// matmul(a, transpose(b)): a is (M x K), b is (N x K), result (M x N).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// c += A * B into a preallocated (M x N) accumulator.
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c);

/// Reference triple-loop GEMM used by tests to validate the dispatched
/// kernels. Follows the same float-accumulate policy (see above).
Tensor matmul_naive(const Tensor& a, const Tensor& b);

}  // namespace xbarlife
