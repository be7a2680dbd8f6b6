// In-memory labeled image dataset plus batching helpers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace xbarlife::data {

/// Dense dataset: one flat feature row per sample.
struct Dataset {
  Tensor images;                     ///< (n, channels*height*width)
  std::vector<std::int32_t> labels;  ///< n class indices
  std::size_t classes = 0;
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;

  std::size_t size() const { return labels.size(); }
  std::size_t features() const { return channels * height * width; }

  /// Copies the samples selected by `indices` into a new dataset.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// First `count` samples (clamped); convenient for fast eval slices.
  Dataset head(std::size_t count) const;

  /// Validates internal consistency; throws on violation.
  void validate() const;
};

/// One minibatch view materialized as owned tensors.
struct Batch {
  Tensor images;                     ///< (batch, features)
  std::vector<std::int32_t> labels;  ///< batch labels
};

/// Copies samples [start, start+count) into a Batch. Clamps count to the
/// dataset end; requires start < size().
Batch make_batch(const Dataset& ds, std::size_t start, std::size_t count);

/// Random permutation of [0, n).
std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng);

}  // namespace xbarlife::data
