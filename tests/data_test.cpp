#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "data/poly_sin.hpp"
#include "data/synthetic.hpp"
#include "support/blobs.hpp"
#include "support/synthetic_reference.hpp"
#include "support/tensor_oracles.hpp"

namespace xbarlife::data {
namespace {

TEST(Dataset, ValidateCatchesInconsistencies) {
  Dataset ds;
  ds.classes = 2;
  ds.channels = 1;
  ds.height = 2;
  ds.width = 2;
  ds.images = Tensor(Shape{3, 4});
  ds.labels = {0, 1, 1};
  EXPECT_NO_THROW(ds.validate());
  ds.labels = {0, 1};  // count mismatch
  EXPECT_THROW(ds.validate(), InvalidArgument);
  ds.labels = {0, 1, 5};  // out-of-range label
  EXPECT_THROW(ds.validate(), InvalidArgument);
}

TEST(Dataset, SubsetCopiesSelectedRows) {
  Dataset ds;
  ds.classes = 3;
  ds.channels = 1;
  ds.height = 1;
  ds.width = 2;
  ds.images = Tensor(Shape{3, 2}, std::vector<float>{0, 1, 10, 11, 20, 21});
  ds.labels = {0, 1, 2};
  const std::vector<std::size_t> idx{2, 0};
  Dataset sub = ds.subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_FLOAT_EQ(sub.images.at(0, 0), 20.0f);
  EXPECT_FLOAT_EQ(sub.images.at(1, 1), 1.0f);
  EXPECT_EQ(sub.labels[0], 2);
  EXPECT_EQ(sub.labels[1], 0);
}

TEST(Dataset, HeadClampsToSize) {
  const auto tt = make_blobs(2, 3, 5, 2, 0.1, 1);
  Dataset h = tt.train.head(1000);
  EXPECT_EQ(h.size(), tt.train.size());
  Dataset h2 = tt.train.head(3);
  EXPECT_EQ(h2.size(), 3u);
}

TEST(Batch, MakeBatchCopiesRowsAndClamps) {
  const auto tt = make_blobs(2, 4, 5, 2, 0.1, 2);
  const Batch b = make_batch(tt.train, 8, 100);
  EXPECT_EQ(b.labels.size(), tt.train.size() - 8);
  EXPECT_EQ(b.images.shape()[1], 4u);
  EXPECT_THROW(make_batch(tt.train, tt.train.size(), 1), InvalidArgument);
}

TEST(ShuffledIndices, IsPermutation) {
  Rng rng(3);
  const auto idx = shuffled_indices(100, rng);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

/// The 10-class generator at `per_class` train and test samples.
TrainTest ten_classes(std::size_t per_class, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.classes = 10;
  spec.train_per_class = per_class;
  spec.test_per_class = per_class;
  spec.seed = seed;
  return make_synthetic(spec);
}

/// Per-class sample counts; length == ds.classes.
std::vector<std::size_t> class_counts(const Dataset& ds) {
  std::vector<std::size_t> counts(ds.classes, 0);
  for (const std::int32_t label : ds.labels) {
    ++counts[static_cast<std::size_t>(label)];
  }
  return counts;
}

TEST(ClassCounts, BalancedGenerator) {
  const auto tt = ten_classes(6, 5);
  const auto counts = class_counts(tt.train);
  ASSERT_EQ(counts.size(), 10u);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    EXPECT_EQ(counts[c], 6u);
  }
}

/// True when both datasets hold the same image bytes and labels.
bool same_bytes(const Dataset& a, const Dataset& b) {
  return a.images.shape() == b.images.shape() &&
         std::memcmp(a.images.data(), b.images.data(),
                     a.images.numel() * sizeof(float)) == 0 &&
         a.labels == b.labels;
}

/// FNV-1a 64 over `n` raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Digests of a split's image bytes and of its label bytes.
struct SplitDigests {
  std::uint64_t images;
  std::uint64_t labels;
  bool operator==(const SplitDigests&) const = default;
};

SplitDigests digests(const Dataset& ds) {
  return {fnv1a(ds.images.data(), ds.images.numel() * sizeof(float)),
          fnv1a(ds.labels.data(), ds.labels.size() * sizeof(std::int32_t))};
}

TEST(Synthetic, PinnedBytes) {
  // The generator's output is part of every golden: the experiments'
  // datasets must keep their exact bytes whatever the renderer does
  // inside. The LeNet-5 spec is the MLP's too.
  SyntheticSpec tiny;
  tiny.classes = 3;
  tiny.train_per_class = 2;
  tiny.test_per_class = 1;
  tiny.channels = 1;
  tiny.height = 5;
  tiny.width = 7;
  tiny.noise = 0.0;
  tiny.texture_waves = 1;
  tiny.seed = 5;
  struct Case {
    const char* name;
    SyntheticSpec spec;
    SplitDigests train;
    SplitDigests test;
  };
  const Case cases[] = {
      {"lenet5", core::lenet_experiment_config().dataset,
       {0xd2827e611679ec9eULL, 0xc8b72311f42d9625ULL},
       {0x46ded0651c2e18c6ULL, 0xbfb69240317bf425ULL}},
      {"vgg16", core::vgg_experiment_config().dataset,
       {0xff384a0edb3435f9ULL, 0xdc61e76921e83d25ULL},
       {0x126ff61d4404da2aULL, 0x90fe934e120b8125ULL}},
      {"tiny", tiny,
       {0xd225a8956632d611ULL, 0x1ca71e7d5cb2abb5ULL},
       {0x4bda8339f54950c7ULL, 0x756241e1be8c9396ULL}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const TrainTest tt = make_synthetic(c.spec);
    const SplitDigests train = digests(tt.train);
    const SplitDigests test = digests(tt.test);
    EXPECT_EQ(train, c.train);
    EXPECT_EQ(test, c.test);
  }
}

TEST(Synthetic, MatchesReferenceBytes) {
  // A certified pixel equals the libm renderer's float and every other
  // pixel is rendered the libm way, so the bytes agree on any spec: the
  // grid crosses channels, square and non-square sizes, wave counts and
  // noise levels, 50 seeds each.
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {5, 5}, {17, 17}, {33, 6}, {8, 33}};
  for (std::size_t waves = 1; waves <= 6; ++waves) {
    for (const double noise : {0.0, 0.2, 0.3}) {
      for (std::size_t channels = 1; channels <= 3; ++channels) {
        for (const auto& [height, width] : sizes) {
          SyntheticSpec spec;
          spec.classes = 2;
          spec.train_per_class = 1;
          spec.test_per_class = 1;
          spec.channels = channels;
          spec.height = height;
          spec.width = width;
          spec.noise = noise;
          spec.texture_waves = waves;
          for (std::uint64_t seed = 1; seed <= 50; ++seed) {
            spec.seed = seed;
            const TrainTest got = make_synthetic(spec);
            const TrainTest want = make_synthetic_reference(spec);
            ASSERT_TRUE(same_bytes(got.train, want.train) &&
                        same_bytes(got.test, want.test))
                << "channels " << channels << ", " << height << "x" << width
                << ", waves " << waves << ", noise " << noise << ", seed "
                << seed;
          }
        }
      }
    }
  }
  // Rounding differences that cross a float boundary are rare (one pixel
  // in the 2.4e8 measured), and the grid above holds none. This spec does:
  // a pixel whose polynomial-path double is -0x1.531cf6ffp-25 and whose
  // libm double is -0x1.531cf703p-25, two different floats. Storing an
  // uncertified pixel (an error bound of 0) fails here.
  SyntheticSpec witness;
  witness.classes = 3;
  witness.train_per_class = 3;
  witness.test_per_class = 1;
  witness.channels = 2;
  witness.height = 33;
  witness.width = 20;
  witness.noise = 0.2;
  witness.texture_waves = 3;
  witness.seed = 35;
  const TrainTest got = make_synthetic(witness);
  const TrainTest want = make_synthetic_reference(witness);
  EXPECT_TRUE(same_bytes(got.train, want.train));
  EXPECT_TRUE(same_bytes(got.test, want.test));
}

TEST(PolySin, WithinBoundOfLibmOnGuardedRange) {
  // 10^7 arguments: half over the whole guarded range, half over the
  // renderer's (|arg| < 64, where every texture argument falls).
  constexpr std::size_t kHalf = 5'000'000;
  std::vector<double> args(2 * kHalf);
  Rng rng(17);
  for (std::size_t i = 0; i < kHalf; ++i) {
    args[i] = rng.uniform(-detail::kPolySinGuard, detail::kPolySinGuard);
    args[kHalf + i] = rng.uniform(-64.0, 64.0);
  }
  args[0] = detail::kPolySinGuard;
  args[1] = -detail::kPolySinGuard;
  args[2] = 0.0;
  args[3] = -0.0;
  std::vector<double> got(args.size());
  detail::poly_sin_row(args.data(), got.data(), args.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    worst = std::max(worst, std::fabs(got[i] - std::sin(args[i])));
  }
  EXPECT_LE(worst, 0x1p-50);
}

TEST(PolySin, PastTheGuardReturnsLibmBits) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> args{
      std::nextafter(detail::kPolySinGuard, inf),
      -std::nextafter(detail::kPolySinGuard, inf),
      1e4,
      -3.5e5,
      1e22,
      std::numeric_limits<double>::max(),
      inf,
      -inf,
      std::numeric_limits<double>::quiet_NaN(),
      // Guarded arguments between them: each element is routed alone.
      0.5,
      -2.0};
  std::vector<double> got(args.size());
  detail::poly_sin_row(args.data(), got.data(), args.size());
  for (std::size_t i = 0; i + 2 < args.size(); ++i) {
    SCOPED_TRACE(args[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(std::sin(args[i])));
  }
  EXPECT_LE(std::fabs(got[9] - std::sin(0.5)), 0x1p-50);
  EXPECT_LE(std::fabs(got[10] - std::sin(-2.0)), 0x1p-50);
}

TEST(Synthetic, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.classes = 4;
  spec.train_per_class = 3;
  spec.test_per_class = 2;
  spec.height = 8;
  spec.width = 8;
  spec.seed = 77;
  const auto a = make_synthetic(spec);
  const auto b = make_synthetic(spec);
  EXPECT_TRUE(same_bytes(a.train, b.train));
  EXPECT_TRUE(same_bytes(a.test, b.test));
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec spec;
  spec.classes = 2;
  spec.train_per_class = 2;
  spec.test_per_class = 1;
  spec.height = 8;
  spec.width = 8;
  spec.seed = 1;
  const auto a = make_synthetic(spec);
  spec.seed = 2;
  const auto b = make_synthetic(spec);
  EXPECT_FALSE(allclose(a.train.images, b.train.images));
}

TEST(Synthetic, TrainAndTestAreDistinctDraws) {
  const auto tt = ten_classes(4, 9);
  EXPECT_FALSE(allclose(tt.train.images, tt.test.images));
}

TEST(Synthetic, ShapesMatchSpec) {
  SyntheticSpec spec;
  spec.classes = 5;
  spec.train_per_class = 3;
  spec.test_per_class = 2;
  spec.channels = 2;
  spec.height = 6;
  spec.width = 7;
  const auto tt = make_synthetic(spec);
  EXPECT_EQ(tt.train.size(), 15u);
  EXPECT_EQ(tt.test.size(), 10u);
  EXPECT_EQ(tt.train.features(), 2u * 6u * 7u);
  tt.train.validate();
  tt.test.validate();
}

TEST(Synthetic, PrefixIsClassBalanced) {
  // Samples are interleaved by class, so any prefix of k*classes rows
  // contains k of each class — the property eval slices rely on.
  const auto tt = ten_classes(4, 21);
  const Dataset head = tt.test.head(20);
  const auto counts = class_counts(head);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    EXPECT_EQ(counts[c], 2u);
  }
}

TEST(Synthetic, RejectsBadSpecs) {
  SyntheticSpec spec;
  spec.classes = 0;
  EXPECT_THROW(make_synthetic(spec), InvalidArgument);
  spec.classes = 2;
  spec.train_per_class = 0;
  EXPECT_THROW(make_synthetic(spec), InvalidArgument);
  spec.train_per_class = 1;
  spec.noise = -0.1;
  EXPECT_THROW(make_synthetic(spec), InvalidArgument);
}

TEST(Synthetic, Cifar100VariantHas100Classes) {
  // VGG-16's dataset shape: 100 classes, more texture waves per class.
  SyntheticSpec spec;
  spec.classes = 100;
  spec.train_per_class = 1;
  spec.test_per_class = 1;
  spec.texture_waves = 6;
  spec.noise = 0.2;
  spec.seed = 3;
  const auto tt = make_synthetic(spec);
  EXPECT_EQ(tt.train.classes, 100u);
  EXPECT_EQ(tt.train.size(), 100u);
}

TEST(Blobs, SeparableWhenSpreadSmall) {
  const auto tt = make_blobs(3, 5, 10, 5, 0.05, 4);
  EXPECT_EQ(tt.train.size(), 30u);
  EXPECT_EQ(tt.train.features(), 5u);
  tt.train.validate();
}

}  // namespace
}  // namespace xbarlife::data
