#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "nn/model_zoo.hpp"

namespace xbarlife::nn {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundtripPreservesEveryParameter) {
  Rng rng(1);
  Network original = make_lenet5({1, 16, 16}, 5, rng);
  const std::string path = temp_path("xbarlife_weights.bin");
  save_parameters(original, path);

  Rng rng2(999);  // different init on purpose
  Network restored = make_lenet5({1, 16, 16}, 5, rng2);
  load_parameters(restored, path);

  const auto a = original.params();
  const auto b = restored.params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(allclose(*a[i].value, *b[i].value, 0.0f))
        << a[i].name;
  }
  std::remove(path.c_str());
}

TEST(Serialize, RestoredNetworkComputesIdenticalOutputs) {
  Rng rng(2);
  Network original = make_mlp(6, {10}, 3, rng);
  const std::string path = temp_path("xbarlife_weights2.bin");
  save_parameters(original, path);
  Rng rng2(3);
  Network restored = make_mlp(6, {10}, 3, rng2);
  load_parameters(restored, path);
  Tensor x(Shape{4, 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(original.infer(x), restored.infer(x), 0.0f));
  std::remove(path.c_str());
}

TEST(Serialize, TopologyMismatchIsRejected) {
  Rng rng(4);
  Network a = make_mlp(6, {10}, 3, rng);
  const std::string path = temp_path("xbarlife_weights3.bin");
  save_parameters(a, path);
  Network wrong_width = make_mlp(6, {11}, 3, rng);
  EXPECT_THROW(load_parameters(wrong_width, path), InvalidArgument);
  Network wrong_depth = make_mlp(6, {10, 4}, 3, rng);
  EXPECT_THROW(load_parameters(wrong_depth, path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, GarbageFileIsRejected) {
  const std::string path = temp_path("xbarlife_weights4.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a parameter file at all";
  }
  Rng rng(5);
  Network net = make_mlp(4, {}, 2, rng);
  EXPECT_THROW(load_parameters(net, path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  Rng rng(6);
  Network net = make_mlp(4, {}, 2, rng);
  EXPECT_THROW(load_parameters(net, "/nonexistent/weights.bin"), Error);
  EXPECT_THROW(save_parameters(net, "/nonexistent/weights.bin"), Error);
}

TEST(Serialize, TruncatedFileIsRejected) {
  Rng rng(7);
  Network net = make_mlp(8, {16}, 4, rng);
  const std::string path = temp_path("xbarlife_weights5.bin");
  save_parameters(net, path);
  // Chop the tail off.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  Network victim = make_mlp(8, {16}, 4, rng);
  EXPECT_THROW(load_parameters(victim, path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xbarlife::nn
