// Language-neutral value model shared by the XML-RPC and JSON-RPC codecs.
// Mirrors the XML-RPC type system: nil, boolean, int, double, string,
// array, struct.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace gae::rpc {

class Value;

using Array = std::vector<Value>;
using Struct = std::map<std::string, Value>;

/// Deepest nesting either codec decodes: JSON arrays and objects, XML
/// elements. Both decoders recurse, and a body may be as large as
/// ConnectionOptions::max_body_bytes, so a deeper body is refused with
/// INVALID_ARGUMENT instead of overflowing the stack.
constexpr int kMaxDecodeDepth = 256;

/// A dynamically typed RPC value.
class Value {
 public:
  enum class Type { kNil, kBool, kInt, kDouble, kString, kArray, kStruct };

  Value() : data_(Nil{}) {}
  Value(bool b) : data_(b) {}                        // NOLINT
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(std::int64_t i) : data_(i) {}                // NOLINT
  Value(double d) : data_(d) {}                      // NOLINT
  Value(const char* s) : data_(std::string(s)) {}    // NOLINT
  Value(std::string s) : data_(std::move(s)) {}      // NOLINT
  Value(Array a) : data_(std::move(a)) {}            // NOLINT
  Value(Struct s) : data_(std::move(s)) {}           // NOLINT

  Type type() const;
  const char* type_name() const;

  bool is_nil() const { return type() == Type::kNil; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_struct() const { return type() == Type::kStruct; }
  /// True for int or double.
  bool is_number() const { return is_int() || is_double(); }

  // Checked accessors: throw std::runtime_error on type mismatch. The RPC
  // dispatcher catches and converts these into INVALID_ARGUMENT faults, so
  // handlers can destructure parameters without boilerplate.
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Accepts int or double.
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Struct& as_struct() const;
  Array& as_array();
  Struct& as_struct();

  // Struct conveniences (throw if not a struct).
  bool has(const std::string& key) const;
  /// Throws std::runtime_error when missing.
  const Value& at(const std::string& key) const;
  /// The member `key`, or null when this is not a struct or has no such
  /// member. Never throws, so codecs can type-check untrusted input.
  const Value* find(const std::string& key) const;
  /// Fallback helpers for optional struct members.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Deep equality.
  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Compact JSON-ish rendering for logs and test failure messages.
  std::string debug_string() const;

 private:
  struct Nil {
    friend bool operator==(const Nil&, const Nil&) { return true; }
  };
  std::variant<Nil, bool, std::int64_t, double, std::string, Array, Struct> data_;
};

}  // namespace gae::rpc
