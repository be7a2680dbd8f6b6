// Int8 quantized inference path.
//
// The aging-aware mapper already discretizes weights onto conductance
// levels; this module mirrors that scheme digitally so inference epochs
// can run on the int8 GEMM kernels (lib_nn-style: int32 accumulate, then
// per-channel zero-point-corrected dequantization to float).
//
// Scheme (see docs/kernels.md):
//   * Weights: per-output-channel symmetric. With L usable conductance
//     levels, codes live in [-qmax, qmax], qmax = min(127, (L-1)/2), and
//     scale_j = max|W[:,j]| / qmax. Fewer levels on an aged array mean a
//     coarser grid — exactly the paper's accuracy-degradation mechanism.
//   * Activations: per-tensor asymmetric over [-127, 127] (avoiding
//     -128 keeps products exact in int16 for the SIMD kernels), range
//     taken from the batch's deterministic min/max.
//   * Accumulation: int32, exact, hence order-independent — the
//     quantized forward pass is byte-identical at any thread count and
//     across dispatch variants.
//   * Dequantization back to float between layers: with zero-point
//     correction, y = s_a * s_w[j] * (acc - zp_a * colsum_j) + bias[j],
//     which composes exactly with the float activation functions.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace xbarlife::nn {

/// Quantization grid for one mappable weight matrix, derived from the
/// crossbar mapping (conductance level count and mapped weight window).
struct QuantSpec {
  /// Representable conductance levels of the target array (>= 2). 256
  /// models a fresh 8-bit array; aged arrays report fewer.
  std::size_t levels = 256;
  /// Optional clamp window applied to weights before coding — the
  /// mapper's representable weight range. Disabled while lo >= hi.
  float clamp_lo = 0.0f;
  float clamp_hi = 0.0f;

  bool has_clamp() const { return clamp_lo < clamp_hi; }
  /// Largest code magnitude for this grid.
  std::int32_t qmax() const;
};

/// An int8-coded matrix plus the affine decode parameters. `scales` and
/// `zero_points` hold one entry per column (per-channel weights) or a
/// single entry broadcast over the matrix (per-tensor activations).
struct QuantizedTensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int8_t> codes;         ///< row-major, rows*cols
  std::vector<float> scales;              ///< size cols or 1
  std::vector<std::int32_t> zero_points;  ///< same size as scales

  bool per_channel() const { return scales.size() == cols; }
};

/// Per-output-channel symmetric weight quantization on `spec`'s grid.
/// w is (in, out); column j gets scale_j = max|W[:,j]| / qmax (after the
/// optional clamp), zero-point 0.
QuantizedTensor quantize_weights(const Tensor& w, const QuantSpec& spec);

/// Per-tensor asymmetric activation quantization to [-127, 127] from the
/// tensor's min/max (always covering 0 so the zero-point is exact).
QuantizedTensor quantize_activations(const Tensor& x);

/// y(float) = dequant(qa * qw) + bias: int8 GEMM with int32 accumulate
/// on the dispatched kernel, then per-channel zero-point-corrected
/// dequantization. qa is (m, k) per-tensor activations, qw (k, n)
/// per-channel weights; `bias` (size n) may be null.
Tensor quantized_linear(const QuantizedTensor& qa, const QuantizedTensor& qw,
                        const Tensor* bias);

}  // namespace xbarlife::nn
