#include "core/model_registry.hpp"

#include <array>

#include "common/error.hpp"

namespace xbarlife::core {

namespace {

ExperimentConfig mlp_config() {
  ExperimentConfig cfg = lenet_experiment_config();
  cfg.name = "MLP / SynthCifar10";
  cfg.model = ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {64, 32};
  return cfg;
}

struct Model {
  const char* name;
  const char* description;
  ExperimentConfig (*config)();
};

/// Sorted by name.
constexpr std::array<Model, 3> kModels{{
    {"lenet5", "LeNet-5 on synthetic CIFAR-10 (paper test case 1)",
     lenet_experiment_config},
    {"mlp", "small MLP on synthetic CIFAR-10 (fast smoke model)",
     mlp_config},
    {"vgg16", "VGG-16 on synthetic CIFAR-100 (paper test case 2)",
     vgg_experiment_config},
}};

const Model& find_model(const std::string& name) {
  std::string available;
  for (const Model& m : kModels) {
    if (name == m.name) {
      return m;
    }
    available += available.empty() ? m.name : std::string(", ") + m.name;
  }
  throw InvalidArgument("unknown model '" + name +
                        "' (available: " + available + ")");
}

}  // namespace

ExperimentConfig make_model_config(const std::string& name) {
  return find_model(name).config();
}

std::vector<std::string> model_names() {
  std::vector<std::string> out;
  for (const Model& m : kModels) {
    out.emplace_back(m.name);
  }
  return out;
}

std::string describe_model(const std::string& name) {
  return find_model(name).description;
}

}  // namespace xbarlife::core
