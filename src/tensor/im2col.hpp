// Patch gathers and col2im for convolution.
//
// Convolutions in the NN substrate are computed as GEMMs over patches,
// matching how the crossbar executes them: each output pixel's receptive
// field becomes one input vector applied to the weight matrix. No patch
// matrix is ever materialised. A TapTable maps every (kernel tap, output
// pixel) pair to the image element it reads, and its two gathers copy
// exactly the slice of the patch matrix a product needs, straight from
// the input images:
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

struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;   // square kernels
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the patch matrix = size of one receptive field.
  std::size_t patch_size() const { return in_channels * kernel * kernel; }
  /// Validates that the geometry is realizable.
  void validate() const;
};

/// The tap-offset table of one geometry: per kernel tap t = (c, ky, kx),
/// the image element it reads for output pixel (0, 0) and the output rows
/// and columns whose read lands inside the image. Every other read is a
/// padding tap and gathers 0.
class TapTable {
 public:
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
  /// Tap t reads image element `base + (oy*in_w + ox) * stride` for
  /// output pixel (oy, ox) with oy in [y_lo, y_hi) and ox in [x_lo, x_hi).
  struct Tap {
    std::ptrdiff_t base;
    std::size_t y_lo, y_hi, x_lo, x_hi;
  };

  /// Tile columns [col, col + len): pixels (oy, ox0 .. ox0 + len) of one
  /// image, which tap t reads at `taps_[t].base + at` onward (`at`
  /// counts from the first image of the batch).
  struct Run {
    std::size_t at, col, len, oy, ox0;
  };

  /// gather_cols for a tap that reads padding somewhere in `run`.
  void gather_clipped(const Tap& tap, const float* images, const Run& run,
                      float* d) const;

  ConvGeometry g_;
  std::size_t pixels_;
  std::vector<Tap> taps_;  // patch_size entries, in (c, ky, kx) order
};

/// Adds a (patch_size, out_h*out_w) patch gradient into the image
/// gradient `image` (flat C*H*W): the adjoint of the patch gather.
/// Contributions reach each image element in ascending output-pixel
/// order.
void col2im(std::span<const float> cols, const ConvGeometry& g,
            std::span<float> image);

}  // namespace xbarlife
