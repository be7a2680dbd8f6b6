// The built-in models: one fixed table that maps a model name to its
// ExperimentConfig and a one-line description.
//
// The CLI, the bench binaries, and the examples resolve names here instead
// of hand-rolling the same lenet5/vgg16/mlp switch, and an unknown name
// fails with an error that lists what is available.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace xbarlife::core {

/// The named model's config; an unknown name throws InvalidArgument
/// listing the built-in names.
ExperimentConfig make_model_config(const std::string& name);

/// Built-in model names in sorted order.
std::vector<std::string> model_names();

/// One-line description of a built-in model (`xbarlife models`); an
/// unknown name throws like make_model_config.
std::string describe_model(const std::string& name);

}  // namespace xbarlife::core
