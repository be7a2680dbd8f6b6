#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "tensor/lanes.hpp"

namespace xbarlife {

void ConvGeometry::validate() const {
  XB_CHECK(in_channels > 0 && in_h > 0 && in_w > 0, "empty conv input");
  XB_CHECK(kernel > 0, "kernel must be positive");
  XB_CHECK(stride > 0, "stride must be positive");
  XB_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
           "kernel larger than padded input");
}

namespace {

/// dst[i] = src[i * stride] for i in [0, len). At stride 1 a run of four
/// or more floats moves four at a time, its last four overlapping the
/// previous move, so short runs (kernel rows, output rows) take no
/// scalar tail.
inline void copy_run(const float* src, std::size_t stride, float* dst,
                     std::size_t len) {
  if (stride == 1 && len >= 4) {
    const auto move4 = [src, dst](std::size_t at) {
      store4(dst + at, [src, at](std::size_t i) { return src[at + i]; });
    };
    for (std::size_t i = 0; i + 4 < len; i += 4) {
      move4(i);
    }
    move4(len - 4);
    return;
  }
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = src[i * stride];
  }
}

/// The outputs o in [0, count) whose read o*stride + k - pad lands in
/// [0, extent): [lo, hi), with lo <= hi.
std::pair<std::size_t, std::size_t> valid_range(std::size_t count,
                                                std::size_t stride,
                                                std::size_t k,
                                                std::size_t pad,
                                                std::size_t extent) {
  // o*stride >= pad - k and o*stride < extent + pad - k.
  const std::size_t lo =
      std::min(count, pad > k ? (pad - k + stride - 1) / stride : 0);
  const std::size_t end = extent + pad > k
                              ? (extent + pad - k + stride - 1) / stride
                              : 0;
  return {lo, std::clamp(end, lo, count)};
}

}  // namespace

TapTable::TapTable(const ConvGeometry& g)
    : g_(g), pixels_(g.out_h() * g.out_w()) {
  g_.validate();
  taps_.reserve(g_.patch_size());
  const auto in_h = static_cast<std::ptrdiff_t>(g_.in_h);
  const auto in_w = static_cast<std::ptrdiff_t>(g_.in_w);
  const auto pad = static_cast<std::ptrdiff_t>(g_.pad);
  for (std::size_t c = 0; c < g_.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g_.kernel; ++ky) {
      const auto [y_lo, y_hi] =
          valid_range(g_.out_h(), g_.stride, ky, g_.pad, g_.in_h);
      for (std::size_t kx = 0; kx < g_.kernel; ++kx) {
        const auto [x_lo, x_hi] =
            valid_range(g_.out_w(), g_.stride, kx, g_.pad, g_.in_w);
        const std::ptrdiff_t base =
            (static_cast<std::ptrdiff_t>(c) * in_h +
             static_cast<std::ptrdiff_t>(ky) - pad) *
                in_w +
            static_cast<std::ptrdiff_t>(kx) - pad;
        taps_.push_back({base, y_lo, y_hi, x_lo, x_hi});
      }
    }
  }
}

void TapTable::gather_cols(std::span<const float> images, std::size_t j0,
                           std::size_t j1, std::span<float> tile) const {
  const std::size_t per_image = g_.in_channels * g_.in_h * g_.in_w;
  const std::size_t width = j1 - j0;
  XB_CHECK(images.size() % per_image == 0 && j0 <= j1 &&
               j1 <= images.size() / per_image * pixels_,
           "gather_cols column range outside the batch");
  XB_CHECK(tile.size() == g_.patch_size() * width,
           "gather_cols tile size mismatch");
  const std::size_t ow = g_.out_w();
  const std::size_t s = g_.stride;
  // The tile's columns as runs along one output row of one image. Every
  // tap reads each run at the same offset from its own base.
  std::vector<Run> runs;
  runs.reserve(width / ow + 2);
  for (std::size_t j = j0; j < j1;) {
    const std::size_t b = j / pixels_;
    const std::size_t oy = (j - b * pixels_) / ow;
    const std::size_t ox0 = j - b * pixels_ - oy * ow;
    const std::size_t len = std::min(ow - ox0, j1 - j);
    runs.push_back({b * per_image + (oy * g_.in_w + ox0) * s, j - j0, len,
                    oy, ox0});
    j += len;
  }
  const std::size_t k = g_.kernel;
  const float* img = images.data();
  // One (c, ky) group of k taps at a time: the group's taps read one
  // image row, one element apart.
  for (std::size_t t0 = 0; t0 < taps_.size(); t0 += k) {
    float* d = tile.data() + t0 * width;
    if (g_.pad == 0) {
      // Every read lands inside the image.
      const float* src = img + taps_[t0].base;
      for (const Run& run : runs) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          copy_run(src + run.at + kx, s, d + kx * width + run.col, run.len);
        }
      }
      continue;
    }
    for (std::size_t t = t0; t < t0 + k; ++t, d += width) {
      const Tap& tap = taps_[t];
      for (const Run& run : runs) {
        if (run.oy >= tap.y_lo && run.oy < tap.y_hi && run.ox0 >= tap.x_lo &&
            run.ox0 + run.len <= tap.x_hi) {
          copy_run(img + (tap.base + static_cast<std::ptrdiff_t>(run.at)), s,
                   d + run.col, run.len);
        } else {
          gather_clipped(tap, img, run, d + run.col);
        }
      }
    }
  }
}

void TapTable::gather_clipped(const Tap& tap, const float* images,
                              const Run& run, float* d) const {
  if (run.oy < tap.y_lo || run.oy >= tap.y_hi) {
    std::fill(d, d + run.len, 0.0f);
    return;
  }
  // Columns [lo, hi) of the run read inside the image; the rest are
  // padding taps.
  const std::size_t ox1 = run.ox0 + run.len;
  const std::size_t lo = std::clamp(tap.x_lo, run.ox0, ox1) - run.ox0;
  const std::size_t hi = std::clamp(tap.x_hi, run.ox0 + lo, ox1) - run.ox0;
  std::fill(d, d + lo, 0.0f);
  if (hi > lo) {
    const std::size_t s = g_.stride;
    copy_run(images + (tap.base +
                       static_cast<std::ptrdiff_t>(run.at + lo * s)),
             s, d + lo, hi - lo);
  }
  std::fill(d + hi, d + run.len, 0.0f);
}

void TapTable::gather_rows(std::span<const float> image,
                           std::span<float> rows) const {
  const std::size_t patch = g_.patch_size();
  XB_CHECK(image.size() == g_.in_channels * g_.in_h * g_.in_w,
           "gather_rows image numel mismatch");
  XB_CHECK(rows.size() == pixels_ * patch, "gather_rows size mismatch");
  const std::size_t k = g_.kernel;
  const std::size_t s = g_.stride;
  const std::size_t pad = g_.pad;
  const std::size_t ow = g_.out_w();
  const std::size_t row_step = s * g_.in_w;
  // Pixels in [y_in_lo, y_in_hi) x [x_in_lo, x_in_hi) read no padding.
  std::size_t y_in_lo = 0, y_in_hi = g_.out_h(), x_in_lo = 0, x_in_hi = ow;
  for (const Tap& tap : taps_) {
    y_in_lo = std::max(y_in_lo, tap.y_lo);
    y_in_hi = std::min(y_in_hi, tap.y_hi);
    x_in_lo = std::max(x_in_lo, tap.x_lo);
    x_in_hi = std::min(x_in_hi, tap.x_hi);
  }
  // The taps of one (c, ky) group differ in kx only, so for one pixel
  // they read k consecutive image elements, of which [kx_lo, kx_hi) are
  // inside the image: one run per group, written in ascending order. A
  // run shorter than 4 floats moves as 4 where that stays inside the
  // image and `rows`: the extra floats land in slots a later run writes.
  const float* img = image.data();
  const float* const img_end = img + image.size();
  float* d = rows.data();
  float* const rows_end = d + rows.size();
  for (std::size_t oy = 0; oy < g_.out_h(); ++oy) {
    for (std::size_t ox = 0, x = 0; ox < ow; ++ox, x += s, d += patch) {
      const auto at = static_cast<std::ptrdiff_t>(oy * row_step + x);
      if (oy >= y_in_lo && oy < y_in_hi && ox >= x_in_lo && ox < x_in_hi) {
        for (std::size_t t = 0; t < patch; t += k) {
          const float* src = img + (taps_[t].base + at);
          if (k < 4 && src + 4 <= img_end && d + t + 4 <= rows_end) {
            store4(d + t, [src](std::size_t i) { return src[i]; });
          } else {
            copy_run(src, 1, d + t, k);
          }
        }
        continue;
      }
      const std::size_t kx_lo = std::min(k, pad > x ? pad - x : 0);
      const std::size_t kx_hi =
          std::clamp(g_.in_w + pad > x ? g_.in_w + pad - x : 0, kx_lo, k);
      std::fill(d, d + patch, 0.0f);
      for (std::size_t t = 0; t < patch; t += k) {
        const Tap& tap = taps_[t];
        if (oy >= tap.y_lo && oy < tap.y_hi && kx_hi > kx_lo) {
          copy_run(img + (tap.base + at +
                          static_cast<std::ptrdiff_t>(kx_lo)),
                   1, d + t + kx_lo, kx_hi - kx_lo);
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
