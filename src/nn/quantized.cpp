#include "nn/quantized.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"

namespace xbarlife::nn {

namespace {

std::int8_t saturate_s8(long v) {
  return static_cast<std::int8_t>(std::clamp(v, -128L, 127L));
}

}  // namespace

std::int32_t QuantSpec::qmax() const {
  XB_CHECK(levels >= 2, "QuantSpec needs at least 2 levels");
  const std::size_t half = (levels - 1) / 2;
  return static_cast<std::int32_t>(std::min<std::size_t>(half, 127));
}

QuantizedTensor quantize_weights(const Tensor& w, const QuantSpec& spec) {
  XB_CHECK(w.shape().rank() == 2, "quantize_weights expects a matrix");
  const std::size_t rows = w.shape()[0];
  const std::size_t cols = w.shape()[1];
  const auto q = static_cast<float>(spec.qmax());
  QuantizedTensor out;
  out.rows = rows;
  out.cols = cols;
  out.codes.resize(rows * cols);
  out.scales.resize(cols);
  out.zero_points.assign(cols, 0);
  for (std::size_t j = 0; j < cols; ++j) {
    float absmax = 0.0f;
    for (std::size_t i = 0; i < rows; ++i) {
      float v = w.at(i, j);
      if (spec.has_clamp()) {
        v = std::clamp(v, spec.clamp_lo, spec.clamp_hi);
      }
      absmax = std::max(absmax, std::fabs(v));
    }
    // An all-zero column keeps a unit scale so decode stays finite.
    const float scale = absmax > 0.0f ? absmax / q : 1.0f;
    out.scales[j] = scale;
    for (std::size_t i = 0; i < rows; ++i) {
      float v = w.at(i, j);
      if (spec.has_clamp()) {
        v = std::clamp(v, spec.clamp_lo, spec.clamp_hi);
      }
      const long code = std::lround(v / scale);
      out.codes[i * cols + j] = static_cast<std::int8_t>(
          std::clamp(code, -static_cast<long>(spec.qmax()),
                     static_cast<long>(spec.qmax())));
    }
  }
  return out;
}

QuantizedTensor quantize_activations(const Tensor& x) {
  XB_CHECK(x.shape().rank() == 2, "quantize_activations expects a matrix");
  const std::size_t rows = x.shape()[0];
  const std::size_t cols = x.shape()[1];
  // Deterministic serial min/max scan (always covering 0 so the
  // zero-point decodes exactly).
  float lo = 0.0f;
  float hi = 0.0f;
  const float* p = x.data();
  for (std::size_t i = 0; i < rows * cols; ++i) {
    lo = std::min(lo, p[i]);
    hi = std::max(hi, p[i]);
  }
  QuantizedTensor out;
  out.rows = rows;
  out.cols = cols;
  out.codes.resize(rows * cols);
  // [-127, 127]: avoiding -128 keeps every int8 product exact in int16,
  // which the SIMD kernels rely on.
  const float scale = hi > lo ? (hi - lo) / 254.0f : 1.0f;
  const auto zp =
      static_cast<std::int32_t>(-127 - std::lround(lo / scale));
  out.scales.assign(1, scale);
  out.zero_points.assign(1, zp);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    out.codes[i] = saturate_s8(std::lround(p[i] / scale) + zp);
  }
  return out;
}

Tensor quantized_linear(const QuantizedTensor& qa, const QuantizedTensor& qw,
                        const Tensor* bias) {
  XB_CHECK(qa.cols == qw.rows, "quantized_linear inner dimension mismatch");
  XB_CHECK(!qa.per_channel() || qa.cols == 1,
           "quantized_linear activations must be per-tensor");
  XB_CHECK(qw.per_channel(), "quantized_linear weights must be per-channel");
  const std::size_t m = qa.rows;
  const std::size_t k = qa.cols;
  const std::size_t n = qw.cols;
  if (bias != nullptr) {
    XB_CHECK(bias->numel() == n, "quantized_linear bias size mismatch");
  }
  // Zero-point correction: sum_k (a_q - zp) * w_q = acc - zp * colsum.
  std::vector<std::int32_t> col_sum(n, 0);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const std::int8_t* row = qw.codes.data() + kk * n;
    for (std::size_t j = 0; j < n; ++j) {
      col_sum[j] += row[j];
    }
  }
  std::vector<std::int32_t> acc(m * n, 0);
  const kernels::KernelSet& ks = kernels::select();
  // Integer accumulation is exact, so any row partition gives the same
  // accumulators; the float dequant below is per-element with a fixed
  // expression. The quantized pass is therefore byte-identical at any
  // thread count.
  parallel_for(0, m, 16, [&](std::size_t row_begin, std::size_t row_end) {
    ks.gemm_s8(qa.codes.data(), qw.codes.data(), acc.data(), m, k, n,
               row_begin, row_end);
  });
  const float a_scale = qa.scales[0];
  const std::int32_t a_zp = qa.zero_points[0];
  Tensor y(Shape{m, n});
  parallel_for(0, m, 16, [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const std::int32_t* arow = acc.data() + i * n;
      float* yrow = y.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float centered =
            static_cast<float>(arow[j] - a_zp * col_sum[j]);
        yrow[j] = a_scale * qw.scales[j] * centered +
                  (bias != nullptr ? (*bias)[j] : 0.0f);
      }
    }
  });
  return y;
}

}  // namespace xbarlife::nn
