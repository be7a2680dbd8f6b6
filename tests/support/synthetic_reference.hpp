// The synthetic-dataset generator as it rendered before the polynomial
// sine: every texture sine from std::sin. It is the byte oracle for
// data::make_synthetic, which must match it on every spec.
#pragma once

#include "data/synthetic.hpp"

namespace xbarlife::data {

/// make_synthetic's reference: same draws, same arithmetic, libm sines.
TrainTest make_synthetic_reference(const SyntheticSpec& spec);

}  // namespace xbarlife::data
