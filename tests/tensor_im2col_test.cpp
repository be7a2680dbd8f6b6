#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife {
namespace {

/// One image's (patch_size, pixels) patch matrix: all of its columns,
/// gathered in one tile from the padded image.
Tensor lower(const Tensor& image, const ConvGeometry& g) {
  const std::size_t pixels = g.out_h() * g.out_w();
  Tensor cols(Shape{g.patch_size(), pixels});
  TapTable(g.padded())
      .gather_cols(pad_images(image, g).flat(), 0, pixels, cols.flat());
  return cols;
}

/// col2im into a fresh image.
Tensor raise(const Tensor& cols, const ConvGeometry& g) {
  const ConvGeometry p = g.padded();
  std::vector<float> padded(p.in_channels * p.in_h * p.in_w);
  Tensor image(Shape{g.in_channels * g.in_h * g.in_w});
  col2im(cols.flat(), g, padded, image.flat());
  return image;
}

/// Input element tap (c, ky, kx) of output pixel (oy, ox) reads, or -1
/// for padding.
long long tap_source(const ConvGeometry& g, std::size_t c, std::size_t ky,
                     std::size_t kx, std::size_t oy, std::size_t ox) {
  const auto iy =
      static_cast<long long>(oy + ky) - static_cast<long long>(g.pad);
  const auto ix =
      static_cast<long long>(ox + kx) - static_cast<long long>(g.pad);
  if (iy < 0 || ix < 0 || iy >= static_cast<long long>(g.in_h) ||
      ix >= static_cast<long long>(g.in_w)) {
    return -1;
  }
  return (static_cast<long long>(c) * static_cast<long long>(g.in_h) + iy) *
             static_cast<long long>(g.in_w) +
         ix;
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 32, 32, 5, 0};
  EXPECT_EQ(g.out_h(), 28u);
  EXPECT_EQ(g.out_w(), 28u);
  EXPECT_EQ(g.patch_size(), 75u);

  ConvGeometry padded{1, 8, 8, 3, 1};
  EXPECT_EQ(padded.out_h(), 8u);
  EXPECT_EQ(padded.out_w(), 8u);
}

TEST(ConvGeometry, ValidationErrors) {
  ConvGeometry zero{0, 8, 8, 3, 0};
  EXPECT_THROW(zero.validate(), InvalidArgument);
  ConvGeometry big_kernel{1, 4, 4, 9, 0};
  EXPECT_THROW(big_kernel.validate(), InvalidArgument);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1x1 kernel: the patch matrix is just the image pixels, row per pixel.
  ConvGeometry g{2, 3, 3, 1, 0};
  Tensor image(Shape{2 * 3 * 3});
  for (std::size_t i = 0; i < image.numel(); ++i) {
    image[i] = static_cast<float>(i);
  }
  // (patch, pixels) order: row = channel, column = pixel.
  Tensor cols = lower(image, g);
  EXPECT_EQ(cols.shape(), (Shape{2, 9}));
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(1, 0), 9.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 8), 8.0f);
}

TEST(Im2col, KnownPatchValues) {
  ConvGeometry g{1, 3, 3, 2, 0};
  Tensor image(Shape{9}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cols = lower(image, g);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
  // Top-left patch (column 0): rows (0,1), (3,4)
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(2, 0), 3.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 0), 4.0f);
  // Bottom-right patch (column 3): (4,5),(7,8)
  EXPECT_FLOAT_EQ(cols.at(0, 3), 4.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2col, PaddingYieldsZeros) {
  ConvGeometry g{1, 2, 2, 3, 1};
  Tensor image(Shape{4}, std::vector<float>{1, 2, 3, 4});
  Tensor cols = lower(image, g);
  EXPECT_EQ(cols.shape(), (Shape{9, 4}));
  // First patch (column 0) is centered at (0,0): top row fully padding.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);  // center = pixel (0,0)
}

TEST(Im2col, InputSizeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 3, 0};
  const TapTable taps(g);
  Tensor cols(Shape{g.patch_size(), g.out_h() * g.out_w()});
  EXPECT_THROW(taps.gather_cols(Tensor(Shape{15}).flat(), 0, 4, cols.flat()),
               InvalidArgument);
  Tensor image(Shape{16});
  EXPECT_THROW(
      taps.gather_cols(image.flat(), 0, 4, Tensor(Shape{3, 3}).flat()),
      InvalidArgument);
  // Columns past the batch, or a reversed range.
  EXPECT_THROW(taps.gather_cols(image.flat(), 2, 6,
                                Tensor(Shape{g.patch_size(), 4}).flat()),
               InvalidArgument);
  EXPECT_THROW(taps.gather_cols(image.flat(), 3, 1, cols.flat()),
               InvalidArgument);
  Tensor rows(Shape{g.out_h() * g.out_w(), g.patch_size()});
  EXPECT_THROW(taps.gather_rows(Tensor(Shape{15}).flat(), rows.flat()),
               InvalidArgument);
  EXPECT_THROW(taps.gather_rows(image.flat(), Tensor(Shape{3, 3}).flat()),
               InvalidArgument);
  // A tap table reads pad-free images only.
  EXPECT_THROW(TapTable(ConvGeometry{1, 4, 4, 3, 1}), InvalidArgument);
}

TEST(Im2col, BatchTilesAndRowsMatchPerImageColumns) {
  // Column tiles of the batch-wide patch matrix, at every width and
  // offset (tiles that straddle images included), and each image's
  // (pixels, patch) rows are slices of the one-image columns. Kernels of
  // 1 to 3 taps per row give runs shorter than 4 floats, whose 4-float
  // moves must stop at the end of the image and of the rows. The last
  // geometry pads by more than the kernel: some pixels read only zeros.
  const ConvGeometry geometries[] = {{2, 6, 6, 3, 1}, {3, 7, 7, 3, 0},
                                     {6, 6, 6, 5, 0}, {2, 5, 5, 1, 0},
                                     {3, 6, 6, 2, 0}, {1, 3, 3, 2, 3}};
  for (const ConvGeometry& g : geometries) {
    const TapTable taps(g.padded());
    const std::size_t patch = g.patch_size();
    const std::size_t pixels = g.out_h() * g.out_w();
    const std::size_t per_image = g.in_channels * g.in_h * g.in_w;
    constexpr std::size_t kBatch = 3;
    Rng rng(patch + pixels);
    Tensor images(Shape{kBatch, per_image});
    images.fill_gaussian(rng, 0.0f, 1.0f);
    const Tensor padded = pad_images(images, g);
    const std::size_t per_padded = padded.shape()[1];
    std::vector<Tensor> cols;
    for (std::size_t b = 0; b < kBatch; ++b) {
      Tensor image(Shape{per_image});
      std::copy_n(images.data() + b * per_image, per_image, image.data());
      cols.push_back(lower(image, g));
      Tensor rows(Shape{pixels, patch});
      taps.gather_rows(padded.flat().subspan(b * per_padded, per_padded),
                       rows.flat());
      EXPECT_TRUE(rows == cols.back().transposed());
    }
    const std::size_t n = kBatch * pixels;
    for (std::size_t width = 1; width <= n; width += 3) {
      for (std::size_t j0 = 0; j0 < n; j0 += width) {
        const std::size_t w = std::min(width, n - j0);
        Tensor tile(Shape{patch, w});
        taps.gather_cols(padded.flat(), j0, j0 + w, tile.flat());
        for (std::size_t t = 0; t < patch; ++t) {
          for (std::size_t i = 0; i < w; ++i) {
            const std::size_t j = j0 + i;
            ASSERT_EQ(tile.at(t, i), cols[j / pixels].at(t, j % pixels))
                << "width " << width << " column " << j << " tap " << t;
          }
        }
      }
    }
  }
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <patches(x), y> == <x, col2im(y)> — the defining adjoint property,
  // checked with random tensors.
  ConvGeometry g{2, 6, 5, 3, 1};
  Rng rng(11);
  Tensor x(Shape{g.in_channels * g.in_h * g.in_w});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor y(Shape{g.patch_size(), g.out_h() * g.out_w()});
  y.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor ax = lower(x, g);
  Tensor aty = raise(y, g);
  double lhs = 0.0;
  for (std::size_t i = 0; i < ax.numel(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2im, ShapeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 3, 1};
  std::vector<float> padded(36);
  Tensor image(Shape{16});
  EXPECT_THROW(col2im(Tensor(Shape{3, 3}).flat(), g, padded, image.flat()),
               InvalidArgument);
  Tensor cols(Shape{g.patch_size(), g.out_h() * g.out_w()});
  EXPECT_THROW(col2im(cols.flat(), g, padded, Tensor(Shape{15}).flat()),
               InvalidArgument);
  EXPECT_THROW(col2im(cols.flat(), g, Tensor(Shape{16}).flat(), image.flat()),
               InvalidArgument);
}

class Im2colGeometrySweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> {};

TEST_P(Im2colGeometrySweep, RoundtripAdjointHolds) {
  const auto [channels, side, kernel, pad] = GetParam();
  ConvGeometry g{channels, side, side, kernel, pad};
  g.validate();
  Rng rng(channels * 100 + side * 10 + kernel);
  Tensor x(Shape{g.in_channels * g.in_h * g.in_w});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor y(Shape{g.patch_size(), g.out_h() * g.out_w()});
  y.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor ax = lower(x, g);
  Tensor aty = raise(y, g);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < ax.numel(); ++i) {
    lhs += static_cast<double>(ax[i]) * static_cast<double>(y[i]);
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * static_cast<double>(aty[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colGeometrySweep,
    ::testing::Values(std::make_tuple(1, 5, 3, 0), std::make_tuple(1, 5, 3, 1),
                      std::make_tuple(3, 8, 5, 2), std::make_tuple(2, 7, 1, 0),
                      std::make_tuple(4, 6, 3, 1),
                      std::make_tuple(1, 12, 5, 0)));

TEST(Im2col, MatchesDefinitionAndAdjointOnPaddedGeometries) {
  // Every element of the gathered patch matrix and col2im against the
  // per-tap definition, and <col2im(g), x> == <g, patches(x)> in float,
  // on pad-0 and padded geometries, up to a border wider than the kernel.
  const ConvGeometry geometries[] = {
      {1, 7, 7, 3, 0}, {2, 8, 8, 3, 1}, {3, 9, 9, 2, 1},
      {1, 6, 6, 5, 4}, {2, 5, 5, 3, 2}, {4, 16, 16, 5, 0},
      {1, 3, 3, 2, 3}};
  for (const ConvGeometry& g : geometries) {
    SCOPED_TRACE(::testing::Message()
                 << g.in_channels << "x" << g.in_h << "x" << g.in_w << " k"
                 << g.kernel << " p" << g.pad);
    Rng rng(g.kernel * 100 + 10 + g.pad);
    Tensor x(Shape{g.in_channels * g.in_h * g.in_w});
    x.fill_gaussian(rng, 0.0f, 1.0f);
    const std::size_t pixels = g.out_h() * g.out_w();
    Tensor y(Shape{g.patch_size(), pixels});
    y.fill_gaussian(rng, 0.0f, 1.0f);

    const Tensor cols = lower(x, g);
    const Tensor image = raise(y, g);
    Tensor want_image(Shape{x.numel()});
    for (std::size_t oy = 0; oy < g.out_h(); ++oy) {
      for (std::size_t ox = 0; ox < g.out_w(); ++ox) {
        const std::size_t p = oy * g.out_w() + ox;
        std::size_t row = 0;
        for (std::size_t c = 0; c < g.in_channels; ++c) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
              const long long src = tap_source(g, c, ky, kx, oy, ox);
              const float want =
                  src < 0 ? 0.0f : x[static_cast<std::size_t>(src)];
              ASSERT_EQ(cols.at(row, p), want) << "tap " << row << " pixel "
                                               << p;
              if (src >= 0) {
                want_image[static_cast<std::size_t>(src)] += y.at(row, p);
              }
            }
          }
        }
      }
    }
    EXPECT_TRUE(image == want_image);

    float lhs = 0.0f;
    float scale = 0.0f;
    for (std::size_t i = 0; i < image.numel(); ++i) {
      lhs += image[i] * x[i];
      scale += std::fabs(image[i] * x[i]);
    }
    float rhs = 0.0f;
    for (std::size_t i = 0; i < cols.numel(); ++i) {
      rhs += y[i] * cols[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-5f * scale + 1e-6f);
  }
}

}  // namespace
}  // namespace xbarlife
