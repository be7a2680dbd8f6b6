// Minimal JSON document model for the observability layer.
//
// The obs subsystem emits machine-readable output (JSONL event traces,
// metric snapshots, versioned CLI result documents); JsonValue is the
// write-side document model those emitters share. Objects preserve
// insertion order and doubles serialize via shortest-roundtrip to_chars,
// so a document built from identical values dumps to identical bytes —
// the property the determinism tests lean on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace xbarlife::obs {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered key/value list.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonValue(T i) {
    if constexpr (std::is_signed_v<T>) {
      value_ = static_cast<std::int64_t>(i);
    } else {
      value_ = static_cast<std::uint64_t>(i);
    }
  }
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(std::string_view s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  /// Wraps an already-serialized JSON fragment: dump() splices `json`
  /// verbatim (no validation, no re-encoding). Used to replay stored
  /// documents — e.g. checkpointed campaign entries — byte-identically.
  static JsonValue raw(std::string json) {
    JsonValue v;
    v.value_ = RawJson{std::move(json)};
    return v;
  }

  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Appends to an array value (precondition: the value is an array).
  void push_back(JsonValue v);

  /// Sets a key on an object value (precondition: is_object()); an
  /// existing key is overwritten in place, a new one appends.
  void set(std::string key, JsonValue v);

  const Object* as_object() const { return std::get_if<Object>(&value_); }

  /// Serializes to compact JSON (no whitespace). Non-finite doubles emit
  /// null, per the usual JSON convention.
  std::string dump() const;
  void dump_to(std::string& out) const;

 private:
  /// Pre-serialized fragment; see raw().
  struct RawJson {
    std::string text;
  };

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, Array, Object, RawJson>
      value_;
};

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Shortest-roundtrip serialization of a double ("0.1", not
/// "0.10000000000000001"); "null" for non-finite values.
std::string json_number(double d);

}  // namespace xbarlife::obs
