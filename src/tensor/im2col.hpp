// im2col / col2im lowering for convolution.
//
// Convolutions in the NN substrate are computed as GEMMs over im2col
// patches, matching how the crossbar executes them: each output pixel's
// receptive field becomes one input vector applied to the weight matrix.
//
// One patch layout, `cols = (patch_size, out_h*out_w)` row-major: row
// (c, ky, kx) holds that kernel tap for every output pixel. A convolution
// forward is then `W^T * cols`, whose product rows are already the
// channel-major (NCHW) output, and `cols` itself is the `patches^T`
// operand of the weight gradient (see docs/kernels.md "Convolution
// lowering").
#pragma once

#include <cstddef>
#include <span>

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

/// Lowers one image (flat C*H*W) into `cols`, a (patch_size, out_h*out_w)
/// patch matrix; every element of `cols` is written.
void im2col(std::span<const float> image, const ConvGeometry& g,
            std::span<float> cols);

/// Adjoint of im2col: adds a (patch_size, out_h*out_w) patch gradient into
/// the image gradient `image` (flat C*H*W). Contributions reach each image
/// element in ascending output-pixel order.
void col2im(std::span<const float> cols, const ConvGeometry& g,
            std::span<float> image);

}  // namespace xbarlife
