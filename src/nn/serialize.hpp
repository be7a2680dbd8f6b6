// Network parameter serialization.
//
// Simple self-describing binary container ("XBW1"): per parameter, the
// name, shape and float data. `train --out` writes it; no program in this
// repository reads it back.
#pragma once

#include <string>

#include "nn/network.hpp"

namespace xbarlife::nn {

/// Writes every parameter (weights and biases) of `net` to `path`.
/// Throws xbarlife::Error on I/O failure.
void save_parameters(Network& net, const std::string& path);

}  // namespace xbarlife::nn
