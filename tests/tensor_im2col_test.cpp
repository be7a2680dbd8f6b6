#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife {
namespace {

/// im2col into a fresh (patch_size, pixels) tensor.
Tensor lower(const Tensor& image, const ConvGeometry& g) {
  Tensor cols(Shape{g.patch_size(), g.out_h() * g.out_w()});
  im2col(image.flat(), g, cols.flat());
  return cols;
}

/// col2im into a fresh zero image.
Tensor raise(const Tensor& cols, const ConvGeometry& g) {
  Tensor image(Shape{g.in_channels * g.in_h * g.in_w});
  col2im(cols.flat(), g, image.flat());
  return image;
}

/// Input element tap (c, ky, kx) of output pixel (oy, ox) reads, or -1
/// for padding.
long long tap_source(const ConvGeometry& g, std::size_t c, std::size_t ky,
                     std::size_t kx, std::size_t oy, std::size_t ox) {
  const auto iy = static_cast<long long>(oy * g.stride + ky) -
                  static_cast<long long>(g.pad);
  const auto ix = static_cast<long long>(ox * g.stride + kx) -
                  static_cast<long long>(g.pad);
  if (iy < 0 || ix < 0 || iy >= static_cast<long long>(g.in_h) ||
      ix >= static_cast<long long>(g.in_w)) {
    return -1;
  }
  return (static_cast<long long>(c) * static_cast<long long>(g.in_h) + iy) *
             static_cast<long long>(g.in_w) +
         ix;
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 32, 32, 5, 1, 0};
  EXPECT_EQ(g.out_h(), 28u);
  EXPECT_EQ(g.out_w(), 28u);
  EXPECT_EQ(g.patch_size(), 75u);

  ConvGeometry padded{1, 8, 8, 3, 1, 1};
  EXPECT_EQ(padded.out_h(), 8u);
  EXPECT_EQ(padded.out_w(), 8u);

  ConvGeometry strided{1, 8, 8, 2, 2, 0};
  EXPECT_EQ(strided.out_h(), 4u);
}

TEST(ConvGeometry, ValidationErrors) {
  ConvGeometry zero{0, 8, 8, 3, 1, 0};
  EXPECT_THROW(zero.validate(), InvalidArgument);
  ConvGeometry big_kernel{1, 4, 4, 9, 1, 0};
  EXPECT_THROW(big_kernel.validate(), InvalidArgument);
  ConvGeometry zero_stride{1, 8, 8, 3, 0, 0};
  EXPECT_THROW(zero_stride.validate(), InvalidArgument);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1x1 kernel: the patch matrix is just the image pixels, row per pixel.
  ConvGeometry g{2, 3, 3, 1, 1, 0};
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
  ConvGeometry g{1, 3, 3, 2, 1, 0};
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
  ConvGeometry g{1, 2, 2, 3, 1, 1};
  Tensor image(Shape{4}, std::vector<float>{1, 2, 3, 4});
  Tensor cols = lower(image, g);
  EXPECT_EQ(cols.shape(), (Shape{9, 4}));
  // First patch (column 0) is centered at (0,0): top row fully padding.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);  // center = pixel (0,0)
}

TEST(Im2col, InputSizeMismatchThrows) {
  ConvGeometry g{1, 4, 4, 3, 1, 0};
  Tensor cols(Shape{g.patch_size(), g.out_h() * g.out_w()});
  EXPECT_THROW(im2col(Tensor(Shape{15}).flat(), g, cols.flat()),
               InvalidArgument);
  Tensor image(Shape{16});
  EXPECT_THROW(im2col(image.flat(), g, Tensor(Shape{3, 3}).flat()),
               InvalidArgument);
}

TEST(Col2im, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
  // checked with random tensors.
  ConvGeometry g{2, 6, 5, 3, 1, 1};
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
  ConvGeometry g{1, 4, 4, 3, 1, 0};
  Tensor image(Shape{16});
  EXPECT_THROW(col2im(Tensor(Shape{3, 3}).flat(), g, image.flat()),
               InvalidArgument);
  Tensor cols(Shape{g.patch_size(), g.out_h() * g.out_w()});
  EXPECT_THROW(col2im(cols.flat(), g, Tensor(Shape{15}).flat()),
               InvalidArgument);
}

class Im2colGeometrySweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>> {};

TEST_P(Im2colGeometrySweep, RoundtripAdjointHolds) {
  const auto [channels, side, kernel, pad] = GetParam();
  ConvGeometry g{channels, side, side, kernel, 1, pad};
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

TEST(Im2col, MatchesDefinitionAndAdjointOnStridedGeometries) {
  // Every element of im2col and col2im against the per-tap definition,
  // and <col2im(g), x> == <g, im2col(x)> in float, on padded and strided
  // geometries (stride > 1 takes im2col's strided gather).
  const ConvGeometry geometries[] = {
      {1, 7, 7, 3, 2, 0}, {2, 8, 8, 3, 2, 1}, {3, 9, 9, 2, 3, 1},
      {1, 6, 6, 5, 1, 4}, {2, 5, 5, 3, 3, 2}, {4, 16, 16, 5, 1, 0}};
  for (const ConvGeometry& g : geometries) {
    SCOPED_TRACE(::testing::Message()
                 << g.in_channels << "x" << g.in_h << "x" << g.in_w << " k"
                 << g.kernel << " s" << g.stride << " p" << g.pad);
    Rng rng(g.kernel * 100 + g.stride * 10 + g.pad);
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
