// Low-dimensional Gaussian-blob datasets for fast unit tests.
#pragma once

#include <cstdint>

#include "data/synthetic.hpp"

namespace xbarlife::data {

/// `classes` isotropic blobs in `features` dimensions. Deterministic in
/// `seed`; train and test are disjoint draws around the same centers.
TrainTest make_blobs(std::size_t classes, std::size_t features,
                     std::size_t train_per_class,
                     std::size_t test_per_class, double spread,
                     std::uint64_t seed = 3);

}  // namespace xbarlife::data
