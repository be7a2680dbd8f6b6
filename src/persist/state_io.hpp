// Binary state serialization primitives for checkpoint payloads.
//
// StateWriter/StateReader implement a tiny, versionless little-endian wire
// format (fixed-width integers, bit-cast IEEE floats, length-prefixed
// strings). Floats travel as raw bit patterns, so a round-tripped payload
// restores *bit-identical* state — the property the crash-safe resume
// guarantees are built on. The header is intentionally header-only: any
// library (device, aging, xbar, tuning) can serialize its state without
// growing a link dependency on xbarlife_persist.
//
// The format is the host's native layout on little-endian targets (the
// only ones built, see the static_assert), so every fixed-width field is
// one memcpy, and a run of fields can be written or read as one block:
// extend(n) hands out n payload bytes to fill, take(n) bounds-checks n
// bytes once and hands back a pointer to them, and put()/get() step a
// cursor through such a block field by field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace xbarlife::persist {

static_assert(std::endian::native == std::endian::little,
              "the state format is little-endian and copied as raw memory");

/// Stores `v` at `p` in the state format; returns the byte after it.
template <class T>
char* put(char* p, T v) {
  static_assert(std::is_arithmetic_v<T>);
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

/// Loads the field at `p` into `v`; returns the byte after it.
template <class T>
const char* get(const char* p, T& v) {
  static_assert(std::is_arithmetic_v<T>);
  std::memcpy(&v, p, sizeof v);
  return p + sizeof v;
}

/// Appends fixed-width little-endian fields to a byte buffer.
class StateWriter {
 public:
  StateWriter() = default;
  /// Reserves `bytes` up front, for writers that know their final size.
  explicit StateWriter(std::size_t bytes) { buf_.reserve(bytes); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append(v); }
  void u64(std::uint64_t v) { append(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Bit-cast floats: the payload restores the exact bit pattern.
  void f32(float v) { append(v); }
  void f64(double v) { append(v); }

  void str(std::string_view v) {
    u64(v.size());
    buf_.append(v.data(), v.size());
  }

  /// Grows the payload by `n` bytes and returns them for the caller to
  /// fill (with put() or memcpy) before the next write.
  char* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  std::size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  /// Moves the payload out, leaving the writer empty.
  std::string release() { return std::move(buf_); }

 private:
  template <class T>
  void append(T v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }

  std::string buf_;
};

/// Reads fields written by StateWriter; throws CheckpointError when the
/// payload runs out (a truncated or foreign payload must never be
/// silently mis-restored).
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t u32() { return field<std::uint32_t>(); }
  std::uint64_t u64() { return field<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }

  float f32() { return field<float>(); }
  double f64() { return field<double>(); }

  std::string str() { return std::string(str_view()); }

  /// A length-prefixed string as a view into the payload (valid while the
  /// payload is).
  std::string_view str_view() {
    const std::uint64_t n = u64();
    need(n);
    return {take(static_cast<std::size_t>(n)), static_cast<std::size_t>(n)};
  }

  /// Consumes `n` bytes after one bounds check and returns the first.
  const char* take(std::size_t n) {
    need(n);
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// Reads a u64 element count that prefixes an array whose elements each
  /// occupy at least `min_bytes_per_element` payload bytes, rejecting any
  /// count the remaining payload cannot possibly satisfy. Count-prefixed
  /// loops must size containers through this instead of a raw u64(): a
  /// corrupt (or hostile — the same reader now parses network payloads)
  /// prefix would otherwise drive a near-2^64 reserve()/resize() and
  /// abort on allocation failure instead of failing cleanly.
  std::size_t array_count(std::size_t min_bytes_per_element) {
    const std::uint64_t n = u64();
    const std::size_t per =
        min_bytes_per_element == 0 ? 1 : min_bytes_per_element;
    if (n > remaining() / per) {
      throw CheckpointError(
          "checkpoint payload corrupt: element count " + std::to_string(n) +
          " needs at least " + std::to_string(per) +
          " byte(s) each but only " + std::to_string(remaining()) +
          " byte(s) remain at offset " + std::to_string(pos_));
    }
    return static_cast<std::size_t>(n);
  }

  /// True when every byte has been consumed.
  bool done() const { return pos_ == data_.size(); }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <class T>
  T field() {
    T v{};
    get(take(sizeof v), v);
    return v;
  }

  void need(std::uint64_t n) const {
    if (remaining() < n) {
      throw CheckpointError(
          "checkpoint payload truncated: needed " + std::to_string(n) +
          " more byte(s) at offset " + std::to_string(pos_));
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Serializes a complete Rng stream position (four lanes + the Box-Muller
/// cache), so a resumed run continues each stream at the exact draw the
/// snapshot was taken at: kRngStateBytes bytes.
inline constexpr std::size_t kRngStateBytes = 4 * 8 + 8 + 1;

inline void write_rng_state(StateWriter& w, const Rng& rng) {
  const Rng::State st = rng.state();
  for (int i = 0; i < 4; ++i) {
    w.u64(st.s[i]);
  }
  w.f64(st.cached_gaussian);
  w.boolean(st.has_cached_gaussian);
}

inline void read_rng_state(StateReader& r, Rng& rng) {
  Rng::State st;
  for (int i = 0; i < 4; ++i) {
    st.s[i] = r.u64();
  }
  st.cached_gaussian = r.f64();
  st.has_cached_gaussian = r.boolean();
  rng.set_state(st);
}

}  // namespace xbarlife::persist
