// Synthetic image-classification datasets.
//
// CIFAR-10/100 (used in the paper) cannot be redistributed with this repo,
// so the experiments run on deterministic synthetic look-alikes: each class
// owns a band-limited spatial texture prototype; samples are the prototype
// under random gain, shift and pixel noise. Difficulty is tunable through
// the noise level and the number of classes, and the generated tensors have
// the same layout a CIFAR loader would produce.
#pragma once

#include "data/dataset.hpp"

namespace xbarlife::data {

struct SyntheticSpec {
  std::size_t classes = 10;
  std::size_t train_per_class = 64;
  std::size_t test_per_class = 16;
  std::size_t channels = 3;
  std::size_t height = 32;
  std::size_t width = 32;
  /// Stddev of additive pixel noise (prototype amplitude is ~1).
  double noise = 0.25;
  /// Number of sinusoidal components per class prototype.
  std::size_t texture_waves = 4;
  std::uint64_t seed = 1;
};

struct TrainTest {
  Dataset train;
  Dataset test;
};

/// Generates the train/test pair described by `spec`. Deterministic in
/// spec.seed; train and test are disjoint draws from the same class models.
TrainTest make_synthetic(const SyntheticSpec& spec);

}  // namespace xbarlife::data
