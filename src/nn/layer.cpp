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

void Layer::zero_grad() {
  for (ParamRef& p : params()) {
    p.grad->zero();
  }
}

}  // namespace xbarlife::nn
