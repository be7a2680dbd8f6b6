#include "nn/model_zoo.hpp"

#include <memory>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"

namespace xbarlife::nn {

Network make_mlp(std::size_t in_features,
                 const std::vector<std::size_t>& hidden,
                 std::size_t classes, Rng& rng, const std::string& name) {
  XB_CHECK(in_features > 0 && classes > 0, "mlp needs positive dims");
  Network net(name);
  std::size_t features = in_features;
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    net.add(std::make_unique<Dense>(features, hidden[i], rng,
                                    "fc" + std::to_string(i + 1)));
    net.add(std::make_unique<ReLU>("relu" + std::to_string(i + 1)));
    features = hidden[i];
  }
  net.add(std::make_unique<Dense>(features, classes, rng, "fc_out"));
  return net;
}

Network make_lenet5(const ImageSpec& input, std::size_t classes, Rng& rng) {
  XB_CHECK(input.height == input.width,
           "LeNet-5 builder expects square inputs");
  XB_CHECK(input.height >= 16, "LeNet-5 needs at least 16x16 inputs");
  Network net("lenet5");

  ConvGeometry c1{input.channels, input.height, input.width,
                  /*kernel=*/5, /*stride=*/1, /*pad=*/0};
  net.add(std::make_unique<Conv2D>(c1, 6, rng, "conv1"));
  net.add(std::make_unique<Tanh>("tanh1"));
  PoolGeometry p1{6, c1.out_h(), c1.out_w(), 2, 2};
  net.add(std::make_unique<MaxPool2D>(p1, "pool1"));

  ConvGeometry c2{6, p1.out_h(), p1.out_w(), 5, 1, 0};
  net.add(std::make_unique<Conv2D>(c2, 16, rng, "conv2"));
  net.add(std::make_unique<Tanh>("tanh2"));
  PoolGeometry p2{16, c2.out_h(), c2.out_w(), 2, 2};
  net.add(std::make_unique<MaxPool2D>(p2, "pool2"));

  const std::size_t flat = 16 * p2.out_h() * p2.out_w();
  net.add(std::make_unique<Flatten>("flatten"));
  net.add(std::make_unique<Dense>(flat, 120, rng, "fc1"));
  net.add(std::make_unique<Tanh>("tanh3"));
  net.add(std::make_unique<Dense>(120, 84, rng, "fc2"));
  net.add(std::make_unique<Tanh>("tanh4"));
  net.add(std::make_unique<Dense>(84, classes, rng, "fc3"));
  return net;
}

Network make_vgg16(const ImageSpec& input, std::size_t classes,
                   std::size_t width, Rng& rng) {
  XB_CHECK(input.height == input.width,
           "VGG-16 builder expects square inputs");
  XB_CHECK(input.height % 32 == 0,
           "VGG-16 needs inputs divisible by 32 (five 2x pools)");
  XB_CHECK(width >= 1, "width multiplier must be >= 1");
  Network net("vgg16");

  // Five blocks: (convs per block, channel multiple of `width`).
  struct Block {
    std::size_t convs;
    std::size_t channels;
  };
  const Block blocks[] = {
      {2, width}, {2, 2 * width}, {3, 4 * width}, {3, 8 * width},
      {3, 8 * width}};

  std::size_t channels = input.channels;
  std::size_t side = input.height;
  std::size_t conv_id = 0;
  for (const Block& blk : blocks) {
    for (std::size_t i = 0; i < blk.convs; ++i) {
      ++conv_id;
      ConvGeometry g{channels, side, side, /*kernel=*/3, /*stride=*/1,
                     /*pad=*/1};
      net.add(std::make_unique<Conv2D>(g, blk.channels, rng,
                                       "conv" + std::to_string(conv_id)));
      net.add(std::make_unique<ReLU>("relu" + std::to_string(conv_id)));
      channels = blk.channels;
    }
    PoolGeometry p{channels, side, side, 2, 2};
    net.add(std::make_unique<MaxPool2D>(
        p, "pool" + std::to_string(conv_id)));
    side /= 2;
  }

  const std::size_t flat = channels * side * side;
  const std::size_t fc_width = 16 * width;  // 1024 at paper scale (w=64: 4096/4)
  net.add(std::make_unique<Flatten>("flatten"));
  net.add(std::make_unique<Dense>(flat, fc_width, rng, "fc1"));
  net.add(std::make_unique<ReLU>("relu_fc1"));
  net.add(std::make_unique<Dense>(fc_width, fc_width, rng, "fc2"));
  net.add(std::make_unique<ReLU>("relu_fc2"));
  net.add(std::make_unique<Dense>(fc_width, classes, rng, "fc3"));
  return net;
}

}  // namespace xbarlife::nn
