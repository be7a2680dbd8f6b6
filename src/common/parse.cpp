#include "common/parse.hpp"

#include <charconv>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace xbarlife {

namespace {

/// True when all of `text` is one number of T (stored in `value`).
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  if (text.empty()) {
    return false;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

[[noreturn]] void reject(std::string_view text, std::string_view what,
                         const char* expected) {
  throw InvalidArgument(std::string(what) + ": expected " + expected +
                        ", got '" + std::string(text) + "'");
}

}  // namespace

std::uint64_t parse_count(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  if (!parse_whole(text, value)) {
    reject(text, what, "a non-negative integer");
  }
  return value;
}

double parse_real(std::string_view text, std::string_view what) {
  double value = 0.0;
  if (!parse_whole(text, value) || !std::isfinite(value)) {
    reject(text, what, "a finite number");
  }
  return value;
}

}  // namespace xbarlife
