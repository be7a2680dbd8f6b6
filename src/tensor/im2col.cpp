#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "tensor/lanes.hpp"

namespace xbarlife {

void ConvGeometry::validate() const {
  XB_CHECK(in_channels > 0 && in_h > 0 && in_w > 0, "empty conv input");
  XB_CHECK(kernel > 0, "kernel must be positive");
  XB_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
           "kernel larger than padded input");
}

Tensor pad_images(const Tensor& images, const ConvGeometry& g) {
  const std::size_t per_image = g.in_channels * g.in_h * g.in_w;
  XB_CHECK(per_image > 0 && images.numel() % per_image == 0,
           "pad_images input is not a whole number of images");
  const ConvGeometry p = g.padded();
  const std::size_t batch = images.numel() / per_image;
  Tensor out(Shape{batch, p.in_channels * p.in_h * p.in_w});
  // Plane by plane, row by row: the bottom border of one plane and the
  // top border of the next lie between their interiors.
  const float* src = images.data();
  float* dst = out.data() + g.pad * p.in_w + g.pad;
  for (std::size_t r = 0; r < batch * g.in_channels;
       ++r, dst += 2 * g.pad * p.in_w) {
    for (std::size_t y = 0; y < g.in_h; ++y, src += g.in_w, dst += p.in_w) {
      std::copy_n(src, g.in_w, dst);
    }
  }
  return out;
}

namespace {

/// dst[i] = src[i] for i in [0, len). A run of four or more floats moves
/// four at a time, its last four overlapping the previous move, so short
/// runs (kernel rows, output rows) take no scalar tail.
inline void copy_run(const float* src, float* dst, std::size_t len) {
  if (len < 4) {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = src[i];
    }
    return;
  }
  const auto move4 = [src, dst](std::size_t at) {
    store4(dst + at, [src, at](std::size_t i) { return src[at + i]; });
  };
  for (std::size_t i = 0; i + 4 < len; i += 4) {
    move4(i);
  }
  move4(len - 4);
}

}  // namespace

TapTable::TapTable(const ConvGeometry& g)
    : g_(g), pixels_(g.out_h() * g.out_w()) {
  g_.validate();
  XB_CHECK(g_.pad == 0, "TapTable gathers pad-free images: pad them first");
  row_base_.reserve(g_.in_channels * g_.kernel);
  for (std::size_t c = 0; c < g_.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g_.kernel; ++ky) {
      row_base_.push_back((c * g_.in_h + ky) * g_.in_w);
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
  // The tile's columns as runs along one output row of one image: tile
  // columns [col, col + len), which every tap reads at `at` (counted
  // from the first image of the batch) past its own offset.
  struct Run {
    std::size_t at, col, len;
  };
  std::vector<Run> runs;
  runs.reserve(width / ow + 2);
  for (std::size_t j = j0; j < j1;) {
    const std::size_t b = j / pixels_;
    const std::size_t oy = (j - b * pixels_) / ow;
    const std::size_t ox0 = j - b * pixels_ - oy * ow;
    const std::size_t len = std::min(ow - ox0, j1 - j);
    runs.push_back({b * per_image + oy * g_.in_w + ox0, j - j0, len});
    j += len;
  }
  const std::size_t k = g_.kernel;
  // One kernel row of k taps at a time: the row's taps read one image
  // row, one element apart.
  float* d = tile.data();
  for (const std::size_t base : row_base_) {
    const float* src = images.data() + base;
    for (const Run& run : runs) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        copy_run(src + run.at + kx, d + kx * width + run.col, run.len);
      }
    }
    d += k * width;
  }
}

void TapTable::gather_rows(std::span<const float> image,
                           std::span<float> rows) const {
  const std::size_t patch = g_.patch_size();
  XB_CHECK(image.size() == g_.in_channels * g_.in_h * g_.in_w,
           "gather_rows image numel mismatch");
  XB_CHECK(rows.size() == pixels_ * patch, "gather_rows size mismatch");
  const std::size_t k = g_.kernel;
  // For one pixel, the k taps of a kernel row read k consecutive image
  // elements: one run per row, written in ascending order. A run shorter
  // than 4 floats moves as 4 where that stays inside the image and
  // `rows`: the extra floats land in slots a later run writes.
  const float* img = image.data();
  const float* const img_end = img + image.size();
  float* d = rows.data();
  float* const rows_end = d + rows.size();
  for (std::size_t oy = 0; oy < g_.out_h(); ++oy) {
    for (std::size_t ox = 0; ox < g_.out_w(); ++ox, d += patch) {
      const std::size_t at = oy * g_.in_w + ox;
      for (std::size_t t = 0, r = 0; t < patch; t += k, ++r) {
        const float* src = img + row_base_[r] + at;
        if (k < 4 && src + 4 <= img_end && d + t + 4 <= rows_end) {
          store4(d + t, [src](std::size_t i) { return src[i]; });
        } else {
          copy_run(src, d + t, k);
        }
      }
    }
  }
}

void col2im(std::span<const float> cols, const ConvGeometry& g,
            std::span<float> padded, std::span<float> image) {
  g.validate();
  const ConvGeometry p = g.padded();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t pixels = oh * ow;
  XB_CHECK(cols.size() == g.patch_size() * pixels,
           "col2im patch shape mismatch");
  XB_CHECK(padded.size() == p.in_channels * p.in_h * p.in_w,
           "col2im padded scratch size mismatch");
  XB_CHECK(image.size() == g.in_channels * g.in_h * g.in_w,
           "col2im image numel mismatch");
  std::fill(padded.begin(), padded.end(), 0.0f);
  // Pixel-major walk: every padded element receives its contributions in
  // ascending output-pixel order, the order the sums are defined in.
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      // cols index of tap (c, ky, kx) at this pixel, advanced by one
      // patch row per tap.
      std::size_t tap = oy * ow + ox;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
          float* dst = padded.data() + (c * p.in_h + oy + ky) * p.in_w + ox;
          for (std::size_t kx = 0; kx < g.kernel; ++kx, tap += pixels) {
            dst[kx] += cols[tap];
          }
        }
      }
    }
  }
  // Copied, not added: `image` takes each sum as it is, unzeroed.
  const float* src = padded.data() + g.pad * p.in_w + g.pad;
  float* out = image.data();
  for (std::size_t c = 0; c < g.in_channels; ++c, src += 2 * g.pad * p.in_w) {
    for (std::size_t y = 0; y < g.in_h; ++y, src += p.in_w, out += g.in_w) {
      std::copy_n(src, g.in_w, out);
    }
  }
}

}  // namespace xbarlife
