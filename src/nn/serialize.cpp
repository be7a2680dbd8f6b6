#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace xbarlife::nn {

namespace {

constexpr char kMagic[4] = {'X', 'B', 'W', '1'};

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_string(std::ofstream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::ifstream& in) {
  const std::uint64_t n = read_u64(in);
  XB_CHECK(n < (1u << 20), "corrupt parameter file: string too long");
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}

}  // namespace

void save_parameters(Network& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw IoError("cannot open parameter file for writing: " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  const auto params = net.params();
  write_u64(out, params.size());
  for (const ParamRef& p : params) {
    write_string(out, p.name);
    const auto& dims = p.value->shape().dims();
    write_u64(out, dims.size());
    for (std::size_t d : dims) {
      write_u64(out, d);
    }
    out.write(reinterpret_cast<const char*>(p.value->data()),
              static_cast<std::streamsize>(p.value->numel() *
                                           sizeof(float)));
  }
  if (!out) {
    throw IoError("write failed: " + path);
  }
}

void load_parameters(Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("cannot open parameter file: " + path);
  }
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  XB_CHECK(in && std::equal(magic, magic + 4, kMagic),
           "not an xbarlife parameter file: " + path);
  const auto params = net.params();
  const std::uint64_t count = read_u64(in);
  XB_CHECK(count == params.size(),
           "parameter count mismatch: file has " + std::to_string(count) +
               ", network has " + std::to_string(params.size()));
  // Every value is read and checked before any parameter changes, so a
  // corrupt file leaves the network as it was.
  std::vector<std::vector<float>> values;
  values.reserve(params.size());
  for (const ParamRef& p : params) {
    const std::string name = read_string(in);
    XB_CHECK(name == p.name, "parameter name mismatch: file has '" + name +
                                 "', network expects '" + p.name + "'");
    const std::uint64_t rank = read_u64(in);
    XB_CHECK(rank == p.value->shape().rank(),
             "parameter rank mismatch at " + name);
    for (std::size_t axis = 0; axis < rank; ++axis) {
      const std::uint64_t dim = read_u64(in);
      XB_CHECK(dim == p.value->shape()[axis],
               "parameter shape mismatch at " + name);
    }
    std::vector<float>& v = values.emplace_back(p.value->numel());
    in.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
    XB_CHECK(static_cast<bool>(in), "truncated parameter file at " + name);
  }
  XB_CHECK(in.peek() == std::ifstream::traits_type::eof(),
           "trailing bytes after the last parameter: " + path);
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::copy(values[i].begin(), values[i].end(), params[i].value->data());
  }
}

}  // namespace xbarlife::nn
