#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace xbarlife::data {

void Dataset::validate() const {
  XB_CHECK(images.shape().rank() == 2, "dataset images must be rank-2");
  XB_CHECK(images.shape()[0] == labels.size(),
           "dataset images/labels count mismatch");
  XB_CHECK(images.shape()[1] == features(),
           "dataset feature width mismatch");
  XB_CHECK(classes > 0, "dataset needs at least one class");
  for (std::int32_t label : labels) {
    XB_CHECK(label >= 0 && static_cast<std::size_t>(label) < classes,
             "dataset label out of range");
  }
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.classes = classes;
  out.channels = channels;
  out.height = height;
  out.width = width;
  const std::size_t f = features();
  out.images = Tensor(Shape{indices.size(), f});
  out.labels.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    XB_CHECK(src < size(), "subset index out of range");
    std::copy_n(images.data() + src * f, f, out.images.data() + i * f);
    out.labels.push_back(labels[src]);
  }
  return out;
}

Dataset Dataset::head(std::size_t count) const {
  count = std::min(count, size());
  std::vector<std::size_t> idx(count);
  std::iota(idx.begin(), idx.end(), 0);
  return subset(idx);
}

Batch make_batch(const Dataset& ds, std::size_t start, std::size_t count) {
  XB_CHECK(start < ds.size(), "batch start out of range");
  count = std::min(count, ds.size() - start);
  const std::size_t f = ds.features();
  Batch batch;
  batch.images = Tensor(
      Shape{count, f},
      std::vector<float>(ds.images.data() + start * f,
                         ds.images.data() + (start + count) * f));
  batch.labels.assign(ds.labels.begin() + static_cast<std::ptrdiff_t>(start),
                      ds.labels.begin() +
                          static_cast<std::ptrdiff_t>(start + count));
  return batch;
}

std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  return idx;
}

}  // namespace xbarlife::data
