#include "obs/json.hpp"

#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife::obs {

void JsonValue::push_back(JsonValue v) {
  auto* arr = std::get_if<Array>(&value_);
  XB_CHECK(arr != nullptr, "push_back on a non-array JsonValue");
  arr->push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  auto* obj = std::get_if<Object>(&value_);
  XB_CHECK(obj != nullptr, "set on a non-object JsonValue");
  for (auto& [k, existing] : *obj) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj->emplace_back(std::move(key), std::move(v));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(ch) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(ch) & 0xF];
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double d) {
  if (!std::isfinite(d)) {
    return "null";
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  return std::string(buf, res.ptr);
}

void JsonValue::dump_to(std::string& out) const {
  struct Visitor {
    std::string& out;
    void operator()(std::nullptr_t) const { out += "null"; }
    void operator()(bool b) const { out += b ? "true" : "false"; }
    void operator()(double d) const { out += json_number(d); }
    void operator()(std::int64_t i) const { out += std::to_string(i); }
    void operator()(std::uint64_t u) const { out += std::to_string(u); }
    void operator()(const std::string& s) const {
      out += '"';
      out += json_escape(s);
      out += '"';
    }
    void operator()(const RawJson& r) const { out += r.text; }
    void operator()(const Array& a) const {
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        a[i].dump_to(out);
      }
      out += ']';
    }
    void operator()(const Object& o) const {
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        out += '"';
        out += json_escape(o[i].first);
        out += "\":";
        o[i].second.dump_to(out);
      }
      out += '}';
    }
  };
  std::visit(Visitor{out}, value_);
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace xbarlife::obs
