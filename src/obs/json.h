// Minimal deterministic JSON tree: parser + accessors (DESIGN.md §14).
//
// The observability plane both EMITS schema-versioned JSON (timeline,
// flight dumps) and READS it back (`vreadstat --timeline`, schema checks,
// round-trip tests). Emission stays streaming (ostream writers in
// timeline.cc); this header is only the read side: a small recursive-
// descent parser into an owned value tree. No third-party dependency —
// the repo builds with the stock toolchain only.
//
// Scope: everything the repo's own emitters produce (objects, arrays,
// strings with \-escapes incl. \uXXXX, integer/double numbers, bools,
// null). Parse errors return std::nullopt and name the byte offset.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vread::obs::json {

class Value {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return b_; }
  double as_double() const { return num_; }
  std::uint64_t as_uint() const { return static_cast<std::uint64_t>(num_); }
  const std::string& as_string() const { return str_; }
  const std::vector<Value>& items() const { return arr_; }
  // Object members in document order (duplicate keys keep last).
  const std::vector<std::pair<std::string, Value>>& members() const { return obj_; }

  // Object lookup; nullptr when absent or not an object.
  const Value* get(const std::string& key) const;
  // Convenience typed lookups with defaults.
  std::string get_string(const std::string& key, std::string fallback = "") const;
  double get_double(const std::string& key, double fallback = 0) const;
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback = 0) const;

  static Value null() { return Value(); }
  static Value boolean(bool b);
  static Value number(double d);
  static Value string(std::string s);
  static Value array(std::vector<Value> items);
  static Value object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool b_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage
// is an error). On failure returns nullopt and, when `error` is non-null,
// fills it with "offset N: reason".
std::optional<Value> parse(const std::string& text, std::string* error = nullptr);

}  // namespace vread::obs::json
