// Element-wise float loops that vectorise at -O2.
//
// Release builds compile at -O2, where GCC vectorises a loop only if it
// needs no runtime alias check, so a plain `dst[i] = f(i)` loop over two
// float pointers stays scalar. Computing four values before storing any
// lets the straight-line (SLP) vectoriser issue them as one vector op.
// Each element is still the one scalar expression, so the bits are those
// of the plain loop.
#pragma once

#include <cstddef>

namespace xbarlife {

/// dst[i] = value(i) for i in [0, 4), all four computed before any store.
template <typename Value>
inline void store4(float* dst, Value value) {
  const float a = value(0);
  const float b = value(1);
  const float c = value(2);
  const float d = value(3);
  dst[0] = a;
  dst[1] = b;
  dst[2] = c;
  dst[3] = d;
}

/// dst[i] = value(i) for i in [0, n), four elements per step.
template <typename Value>
inline void store_lanes(float* dst, std::size_t n, Value value) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(dst + i, [&value, i](std::size_t l) { return value(i + l); });
  }
  for (; i < n; ++i) {
    dst[i] = value(i);
  }
}

}  // namespace xbarlife
