#include "nn/update.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"

namespace xbarlife::nn {

namespace {

/// The rule on element i, in the order update.hpp describes. kTerm: the
/// penalty sums over w and, with kGrad, g += reg'(w). kStep: the
/// momentum-SGD update from g, written to w_out (w itself) and v.
template <bool kTerm, bool kGrad, bool kStep>
inline void element(const float* w, float* w_out, float* g, float* v,
                    std::size_t i, const RegularizerTerm& t, float lr,
                    float mu, double& left, double& right) {
  const float wi = w[i];
  if constexpr (kTerm) {
    const double e = static_cast<double>(wi) - t.omega;
    const double sq = e * e;
    const bool to_left = e < t.split;
    left += to_left ? sq : 0.0;
    right += to_left ? 0.0 : sq;
  }
  if constexpr (kGrad || kStep) {
    float gi = g[i];
    if constexpr (kTerm && kGrad) {
      const float d = wi - t.omega_f;
      gi = gi + (d < 0.0f ? t.grad_left : t.grad_right) * d;
      g[i] = gi;
    }
    if constexpr (kStep) {
      const float vi = mu * v[i] - lr * gi;
      v[i] = vi;
      w_out[i] = wi + vi;
    }
  }
}

#if defined(__SSE2__)
/// Adds two elements' squares to the sums, element 0's then element 1's.
inline void add_squares(__m128d w2, __m128d omega, __m128d split,
                        double& left, double& right) {
  const __m128d e = _mm_sub_pd(w2, omega);
  const __m128d sq = _mm_mul_pd(e, e);
  const __m128d to_left = _mm_cmplt_pd(e, split);
  const __m128d l = _mm_and_pd(to_left, sq);
  const __m128d r = _mm_andnot_pd(to_left, sq);
  left += _mm_cvtsd_f64(l);
  right += _mm_cvtsd_f64(r);
  left += _mm_cvtsd_f64(_mm_unpackhi_pd(l, l));
  right += _mm_cvtsd_f64(_mm_unpackhi_pd(r, r));
}

/// element() on four elements at a time with SSE2 (the x86-64 baseline):
/// every lane runs the same IEEE operations, so it has element()'s bits.
/// Returns where the scalar tail starts.
template <bool kTerm, bool kGrad, bool kStep>
std::size_t vector_body(const float* w, float* w_out, float* g, float* v,
                        std::size_t n, const RegularizerTerm& t, float lr,
                        float mu, double& left, double& right) {
  const __m128d omega = _mm_set1_pd(t.omega);
  const __m128d split = _mm_set1_pd(t.split);
  const __m128 omega_f = _mm_set1_ps(t.omega_f);
  const __m128 grad_left = _mm_set1_ps(t.grad_left);
  const __m128 grad_right = _mm_set1_ps(t.grad_right);
  const __m128 lr4 = _mm_set1_ps(lr);
  const __m128 mu4 = _mm_set1_ps(mu);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 wi = _mm_loadu_ps(w + i);
    if constexpr (kTerm) {
      add_squares(_mm_cvtps_pd(wi), omega, split, left, right);
      add_squares(_mm_cvtps_pd(_mm_movehl_ps(wi, wi)), omega, split, left,
                  right);
    }
    if constexpr (kGrad || kStep) {
      __m128 gi = _mm_loadu_ps(g + i);
      if constexpr (kTerm && kGrad) {
        const __m128 d = _mm_sub_ps(wi, omega_f);
        const __m128 to_left = _mm_cmplt_ps(d, _mm_setzero_ps());
        const __m128 scale = _mm_or_ps(_mm_and_ps(to_left, grad_left),
                                       _mm_andnot_ps(to_left, grad_right));
        gi = _mm_add_ps(gi, _mm_mul_ps(scale, d));
        _mm_storeu_ps(g + i, gi);
      }
      if constexpr (kStep) {
        const __m128 vi = _mm_sub_ps(_mm_mul_ps(mu4, _mm_loadu_ps(v + i)),
                                     _mm_mul_ps(lr4, gi));
        _mm_storeu_ps(v + i, vi);
        _mm_storeu_ps(w_out + i, _mm_add_ps(wi, vi));
      }
    }
  }
  return i;
}
#endif

template <bool kTerm, bool kGrad, bool kStep>
PenaltySums pass(const float* w, float* w_out, float* g, float* v,
                 std::size_t n, const RegularizerTerm& t, float lr,
                 float mu) {
  double left = 0.0;
  double right = 0.0;
  std::size_t i = 0;
#if defined(__SSE2__)
  i = vector_body<kTerm, kGrad, kStep>(w, w_out, g, v, n, t, lr, mu, left,
                                       right);
#endif
  for (; i < n; ++i) {
    element<kTerm, kGrad, kStep>(w, w_out, g, v, i, t, lr, mu, left, right);
  }
  return {left, right};
}

}  // namespace

double RegularizerTerm::penalty(const PenaltySums& sums) const {
  if (float_sum) {
    return lambda_right * static_cast<double>(static_cast<float>(sums.right));
  }
  return lambda_left * sums.left + lambda_right * sums.right;
}

PenaltySums update_tensor(std::span<float> w, std::span<float> g,
                          std::span<float> v, float lr, float mu,
                          const RegularizerTerm* term) {
  XB_CHECK(g.size() == w.size() && v.size() == w.size(),
           "gradient size does not match its parameter");
  if (term != nullptr) {
    return pass<true, true, true>(w.data(), w.data(), g.data(), v.data(),
                                  w.size(), *term, lr, mu);
  }
  return pass<false, false, true>(w.data(), w.data(), g.data(), v.data(),
                                  w.size(), RegularizerTerm{}, lr, mu);
}

PenaltySums penalty_sums(std::span<const float> w,
                         const RegularizerTerm& term) {
  return pass<true, false, false>(w.data(), nullptr, nullptr, nullptr,
                                  w.size(), term, 0.0f, 0.0f);
}

}  // namespace xbarlife::nn
