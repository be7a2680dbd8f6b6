#include "support/blobs.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife::data {

TrainTest make_blobs(std::size_t classes, std::size_t features,
                     std::size_t train_per_class,
                     std::size_t test_per_class, double spread,
                     std::uint64_t seed) {
  XB_CHECK(classes > 0 && features > 0, "blobs need positive dims");
  XB_CHECK(spread >= 0.0, "spread must be non-negative");
  Rng master(seed);
  Rng center_rng = master.fork(0);
  std::vector<std::vector<float>> centers(classes,
                                          std::vector<float>(features));
  for (auto& center : centers) {
    for (float& v : center) {
      v = static_cast<float>(center_rng.gaussian(0.0, 1.0));
    }
  }
  auto render = [&](std::size_t per_class, Rng& rng) {
    Dataset ds;
    ds.classes = classes;
    ds.channels = 1;
    ds.height = 1;
    ds.width = features;
    const std::size_t n = per_class * classes;
    ds.images = Tensor(Shape{n, features});
    ds.labels.reserve(n);
    std::size_t row = 0;
    for (std::size_t s = 0; s < per_class; ++s) {
      for (std::size_t c = 0; c < classes; ++c, ++row) {
        float* out = ds.images.data() + row * features;
        for (std::size_t f = 0; f < features; ++f) {
          out[f] = centers[c][f] +
                   static_cast<float>(rng.gaussian(0.0, spread));
        }
        ds.labels.push_back(static_cast<std::int32_t>(c));
      }
    }
    ds.validate();
    return ds;
  };
  Rng train_rng = master.fork(1);
  Rng test_rng = master.fork(2);
  TrainTest tt;
  tt.train = render(train_per_class, train_rng);
  tt.test = render(test_per_class, test_rng);
  return tt;
}

}  // namespace xbarlife::data
