#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"

namespace xbarlife {

void ConvGeometry::validate() const {
  XB_CHECK(in_channels > 0 && in_h > 0 && in_w > 0, "empty conv input");
  XB_CHECK(kernel > 0, "kernel must be positive");
  XB_CHECK(stride > 0, "stride must be positive");
  XB_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
           "kernel larger than padded input");
}

void im2col(std::span<const float> image, const ConvGeometry& g,
            std::span<float> cols) {
  g.validate();
  XB_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
           "im2col input numel mismatch");
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  XB_CHECK(cols.size() == g.patch_size() * oh * ow,
           "im2col patch matrix size mismatch");
  const auto s = static_cast<std::ptrdiff_t>(g.stride);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto out_w = static_cast<std::ptrdiff_t>(ow);
  float* row = cols.data();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, row += oh * ow) {
        // Output column ox reads input column ox*stride + off; [lo, hi)
        // are the columns whose tap lands inside the image, the rest
        // read padding.
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kx) - pad;
        const std::ptrdiff_t lo =
            std::min(out_w, off >= 0 ? 0 : (-off + s - 1) / s);
        const std::ptrdiff_t hi =
            std::clamp((in_w - off + s - 1) / s, lo, out_w);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* dst = row + oy * ow;
          const auto iy = static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                          pad;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::fill(dst, dst + ow, 0.0f);
            continue;
          }
          const float* src =
              image.data() + (c * g.in_h + static_cast<std::size_t>(iy)) *
                                 g.in_w;
          std::fill(dst, dst + lo, 0.0f);
          if (s == 1 && hi > lo) {
            std::copy(src + lo + off, src + hi + off, dst + lo);
          } else {
            for (std::ptrdiff_t ox = lo; ox < hi; ++ox) {
              dst[ox] = src[ox * s + off];
            }
          }
          std::fill(dst + hi, dst + ow, 0.0f);
        }
      }
    }
  }
}

void col2im(std::span<const float> cols, const ConvGeometry& g,
            std::span<float> image) {
  g.validate();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t pixels = oh * ow;
  XB_CHECK(cols.size() == g.patch_size() * pixels,
           "col2im patch shape mismatch");
  XB_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
           "col2im image numel mismatch");
  // Pixel-major walk: every image element receives its contributions in
  // ascending output-pixel order, the order the sums are defined in.
  const auto stride = static_cast<std::ptrdiff_t>(g.stride);
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const auto kernel = static_cast<std::ptrdiff_t>(g.kernel);
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      // cols index of tap (c, ky, kx) at this pixel, advanced by one
      // patch row per tap.
      std::size_t tap = oy * ow + ox;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::ptrdiff_t ky = 0; ky < kernel; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy) * stride + ky - pad;
          if (iy < 0 || iy >= in_h) {
            tap += g.kernel * pixels;
            continue;
          }
          float* dst = image.data() +
                       (c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w;
          for (std::ptrdiff_t kx = 0; kx < kernel; ++kx, tap += pixels) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox) * stride + kx - pad;
            if (ix >= 0 && ix < in_w) {
              dst[ix] += cols[tap];
            }
          }
        }
      }
    }
  }
}

}  // namespace xbarlife
