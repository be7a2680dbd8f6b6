// Model zoo: the topologies evaluated in the paper.
//
// LeNet-5 (2 conv + 3 FC) and VGG-16 (13 conv + 3 FC) are built faithfully
// to the layer-type mix reported in Table I; VGG-16 takes a width
// multiplier so laptop-scale experiments keep the topology but shrink the
// channel counts (documented substitution, see DESIGN.md).
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "nn/network.hpp"

namespace xbarlife::nn {

struct ImageSpec {
  std::size_t channels = 3;
  std::size_t height = 32;
  std::size_t width = 32;

  std::size_t features() const { return channels * height * width; }
};

/// Simple MLP: input -> hidden... -> classes, ReLU between layers.
Network make_mlp(std::size_t in_features,
                 const std::vector<std::size_t>& hidden,
                 std::size_t classes, Rng& rng,
                 const std::string& name = "mlp");

/// LeNet-5: conv(6@5x5) - maxpool2 - conv(16@5x5) - maxpool2 -
/// fc120 - fc84 - fc(classes), tanh activations (as in the original).
/// Requires height == width and (height/2 - 2)/2 >= 1 after the stack
/// (true for 32x32 and 28x28 inputs).
Network make_lenet5(const ImageSpec& input, std::size_t classes, Rng& rng);

/// VGG-16: 13 conv (3x3, pad 1) in five blocks with maxpool after each
/// block, then fc - fc - fc(classes), ReLU activations. `width` scales
/// every channel count (paper-faithful widths at width = 64). Requires
/// height == width and divisible by 32 (five 2x pools).
Network make_vgg16(const ImageSpec& input, std::size_t classes,
                   std::size_t width, Rng& rng);

}  // namespace xbarlife::nn
