// Minimal JSON value: enough for the observability exporters, the schema
// checker and report round-trips. Objects preserve insertion order so the
// emitted reports are deterministic and diffable.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pfc::obs {

/// Deepest object/array nesting Json::parse accepts. Every document this
/// project reads is a few levels deep; the cap keeps parsing (and the
/// recursive destructor of what it built) within a bounded stack whatever
/// arrives from outside.
inline constexpr int kJsonMaxDepth = 256;

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Object, Array };

  Json() = default;
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double v) : kind_(Kind::Number), num_(v) {}
  Json(int v) : kind_(Kind::Number), num_(double(v)) {}
  Json(long long v) : kind_(Kind::Number), num_(double(v)) {}
  Json(std::uint64_t v) : kind_(Kind::Number), num_(double(v)) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}

  static Json object() { Json j; j.kind_ = Kind::Object; return j; }
  static Json array() { Json j; j.kind_ = Kind::Array; return j; }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }

  double number() const { return num_; }
  bool boolean() const { return bool_; }
  const std::string& str() const { return str_; }

  /// Object: sets (or replaces) a key. Returns *this for chaining.
  Json& set(const std::string& key, Json v);
  /// Object: member lookup, nullptr if absent (or not an object).
  const Json* find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& items() const {
    return members_;
  }

  /// Array: appends an element. Returns *this for chaining.
  Json& push(Json v);
  const std::vector<Json>& elements() const { return elems_; }

  bool operator==(const Json& o) const;

  /// Serializes with 2-space indentation (indent < 0: compact one-liner).
  std::string dump(int indent = 2) const;

  /// Recursive-descent parse; returns Null and sets *error on failure
  /// (including nesting deeper than kJsonMaxDepth).
  static Json parse(const std::string& text, std::string* error = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;  // Object
  std::vector<Json> elems_;                            // Array
};

}  // namespace pfc::obs
