#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "data/synthetic.hpp"

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
  EXPECT_TRUE(allclose(a.train.images, b.train.images));
  EXPECT_EQ(a.train.labels, b.train.labels);
  EXPECT_TRUE(allclose(a.test.images, b.test.images));
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
