// Patch gathers and col2im for convolution.
//
// Convolutions in the NN substrate are computed as GEMMs over patches,
// matching how the crossbar executes them: each output pixel's receptive
// field becomes one input vector applied to the weight matrix. No patch
// matrix is ever materialised. A padded layer zero-pads its images once
// (pad_images), so every gather reads a pad-free image: a TapTable maps
// every kernel row to its offset in the image, and its two gathers copy
// exactly the slice of the patch matrix a product needs, straight from
// the images:
//
//   * gather_cols: a column tile of the batch-wide `(patch_size,
//     batch*pixels)` matrix, whose column b*pixels + p is pixel p of
//     image b. Row (c, ky, kx) holds that kernel tap. A forward is
//     `W^T * tile` per tile (see docs/kernels.md "Convolution lowering").
//   * gather_rows: one image's `(pixels, patch_size)` matrix, the
//     `patches^T` operand of the weight gradient and the int8 path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace xbarlife {

/// A stride-1 convolution with square kernels and a zero border of `pad`
/// pixels on every side.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;
  std::size_t pad = 0;

  std::size_t out_h() const { return in_h + 2 * pad - kernel + 1; }
  std::size_t out_w() const { return in_w + 2 * pad - kernel + 1; }
  /// Rows of the patch matrix = size of one receptive field.
  std::size_t patch_size() const { return in_channels * kernel * kernel; }
  /// The same convolution over the zero-padded images: pad 0, same output.
  ConvGeometry padded() const {
    return {in_channels, in_h + 2 * pad, in_w + 2 * pad, kernel, 0};
  }
  /// Validates that the geometry is realizable.
  void validate() const;
};

/// `images`, a whole number of C*H*W images back to back, with each image
/// zero-padded by `g.pad` on every side: one row per image, of
/// `g.padded()`'s C*H*W floats.
Tensor pad_images(const Tensor& images, const ConvGeometry& g);

/// The tap-offset table of one pad-free geometry: per kernel row (c, ky),
/// the image element its first tap reads for output pixel (0, 0). Tap
/// (c, ky, kx) of pixel (oy, ox) reads that offset + oy*in_w + ox + kx.
class TapTable {
 public:
  /// `g.pad` must be 0: pad the images first and pass `g.padded()`.
  explicit TapTable(const ConvGeometry& g);

  /// Writes columns [j0, j1) of the batch-wide patch matrix of `images`
  /// (batch rows of C*H*W, back to back) into `tile`, a (patch_size,
  /// j1 - j0) row-major matrix; every element of `tile` is written.
  void gather_cols(std::span<const float> images, std::size_t j0,
                   std::size_t j1, std::span<float> tile) const;

  /// Writes one image's (pixels, patch_size) patch matrix into `rows`:
  /// row p is the receptive field of output pixel p.
  void gather_rows(std::span<const float> image, std::span<float> rows) const;

 private:
  ConvGeometry g_;
  std::size_t pixels_;
  std::vector<std::size_t> row_base_;  // C*kernel entries, in (c, ky) order
};

/// Writes into `image` (flat C*H*W) the gradient of a (patch_size,
/// out_h*out_w) patch gradient: the adjoint of padding and gathering.
/// The patch gradient is scattered into `padded`, scratch for one image
/// of `g.padded()`, from zero and without bounds checks, so every element
/// receives its contributions in ascending output-pixel order; the
/// interior is then copied into `image`.
void col2im(std::span<const float> cols, const ConvGeometry& g,
            std::span<float> padded, std::span<float> image);

}  // namespace xbarlife
