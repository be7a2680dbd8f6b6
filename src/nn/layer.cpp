#include "nn/layer.hpp"

namespace xbarlife::nn {

std::string to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDense:
      return "dense";
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kPool:
      return "pool";
    case LayerKind::kActivation:
      return "activation";
    case LayerKind::kFlatten:
      return "flatten";
  }
  return "unknown";
}

}  // namespace xbarlife::nn
