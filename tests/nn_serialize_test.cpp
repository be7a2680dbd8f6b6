#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

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

TEST(Serialize, CorruptionOfEveryByteAndTruncationFailsClosed) {
  // Every single-byte flip and every truncation of a small weight file
  // either loads or throws InvalidArgument, and a load that throws leaves
  // the network as it was. The names, ranks, dims and counts go through
  // the length-checked readers; the ASan/UBSan job runs this table too.
  Rng rng(8);
  Network source = make_mlp(4, {3}, 2, rng);
  const std::string path = temp_path("xbarlife_weights6.bin");
  save_parameters(source, path);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  Rng rng2(9);
  Network net = make_mlp(4, {3}, 2, rng2);
  std::vector<Tensor> before;
  for (const ParamRef& p : net.params()) {
    before.push_back(*p.value);
  }
  const auto attempt = [&](const std::string& bytes, const std::string& what) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      load_parameters(net, path);
    } catch (const InvalidArgument&) {
      const auto params = net.params();
      for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(allclose(*params[i].value, before[i], 0.0f))
            << what << ": a failed load changed " << params[i].name;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped failure: " << e.what();
    }
    const auto params = net.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      *params[i].value = before[i];
    }
  };
  attempt(good, "unmodified");
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned mask : {0x01U, 0x80U, 0xffU}) {
      std::string mutated = good;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ mask);
      attempt(mutated, "flip at " + std::to_string(i));
    }
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    attempt(good.substr(0, len), "truncation to " + std::to_string(len));
  }
  // Bytes past the last parameter are refused, not ignored.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << good << 'x';
  }
  EXPECT_THROW(load_parameters(net, path), InvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xbarlife::nn
