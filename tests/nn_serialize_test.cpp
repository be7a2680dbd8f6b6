#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "nn/model_zoo.hpp"

namespace xbarlife::nn {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void append_f32(std::string& out, float v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

TEST(Serialize, WritesPinnedBytes) {
  // A 3 -> 2 dense layer: magic, parameter count, then per parameter its
  // name, rank, dims and row-major float data, integers as host-order u64.
  Rng rng(1);
  Network net = make_mlp(3, {}, 2, rng);
  float next = 0.5f;
  for (const ParamRef& p : net.params()) {
    for (std::size_t i = 0; i < p.value->numel(); ++i) {
      (*p.value)[i] = next;
      next -= 0.25f;
    }
  }
  std::string want = "XBW1";
  append_u64(want, 2);
  append_u64(want, 13);
  want += "fc_out.weight";
  append_u64(want, 2);
  append_u64(want, 3);
  append_u64(want, 2);
  for (const float w : {0.5f, 0.25f, 0.0f, -0.25f, -0.5f, -0.75f}) {
    append_f32(want, w);
  }
  append_u64(want, 11);
  want += "fc_out.bias";
  append_u64(want, 1);
  append_u64(want, 2);
  for (const float b : {-1.0f, -1.25f}) {
    append_f32(want, b);
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "xbarlife_weights.bin")
          .string();
  save_parameters(net, path);
  std::ifstream in(path, std::ios::binary);
  const std::string got(std::istreambuf_iterator<char>(in), {});
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  Rng rng(6);
  Network net = make_mlp(4, {}, 2, rng);
  EXPECT_THROW(save_parameters(net, "/nonexistent/weights.bin"), IoError);
}

}  // namespace
}  // namespace xbarlife::nn
