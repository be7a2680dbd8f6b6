#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"

namespace xbarlife::nn {

namespace {

constexpr char kMagic[4] = {'X', 'B', 'W', '1'};

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_string(std::ofstream& out, const std::string& s) {
  write_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
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

}  // namespace xbarlife::nn
