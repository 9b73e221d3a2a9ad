#include "rpc/value.h"

#include <sstream>
#include <stdexcept>

namespace gae::rpc {

Value::Type Value::type() const {
  return static_cast<Type>(data_.index());
}

const char* Value::type_name() const {
  switch (type()) {
    case Type::kNil: return "nil";
    case Type::kBool: return "bool";
    case Type::kInt: return "int";
    case Type::kDouble: return "double";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kStruct: return "struct";
  }
  return "?";
}

namespace {
[[noreturn]] void type_error(const char* want, const char* got) {
  throw std::runtime_error(std::string("rpc value type mismatch: wanted ") + want +
                           ", got " + got);
}
}  // namespace

bool Value::as_bool() const {
  if (auto* p = std::get_if<bool>(&data_)) return *p;
  type_error("bool", type_name());
}

std::int64_t Value::as_int() const {
  if (auto* p = std::get_if<std::int64_t>(&data_)) return *p;
  type_error("int", type_name());
}

double Value::as_double() const {
  if (auto* p = std::get_if<double>(&data_)) return *p;
  if (auto* p = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*p);
  type_error("double", type_name());
}

const std::string& Value::as_string() const {
  if (auto* p = std::get_if<std::string>(&data_)) return *p;
  type_error("string", type_name());
}

const Array& Value::as_array() const {
  if (auto* p = std::get_if<Array>(&data_)) return *p;
  type_error("array", type_name());
}

const Struct& Value::as_struct() const {
  if (auto* p = std::get_if<Struct>(&data_)) return *p;
  type_error("struct", type_name());
}

Array& Value::as_array() {
  if (auto* p = std::get_if<Array>(&data_)) return *p;
  type_error("array", type_name());
}

Struct& Value::as_struct() {
  if (auto* p = std::get_if<Struct>(&data_)) return *p;
  type_error("struct", type_name());
}

bool Value::has(const std::string& key) const { return as_struct().count(key) != 0; }

const Value& Value::at(const std::string& key) const {
  const Struct& s = as_struct();
  auto it = s.find(key);
  if (it == s.end()) throw std::runtime_error("rpc struct missing member: " + key);
  return it->second;
}

const Value* Value::find(const std::string& key) const {
  const auto* s = std::get_if<Struct>(&data_);
  if (!s) return nullptr;
  auto it = s->find(key);
  return it == s->end() ? nullptr : &it->second;
}

std::int64_t Value::get_int(const std::string& key, std::int64_t fallback) const {
  const Struct& s = as_struct();
  auto it = s.find(key);
  return it == s.end() ? fallback : it->second.as_int();
}

double Value::get_double(const std::string& key, double fallback) const {
  const Struct& s = as_struct();
  auto it = s.find(key);
  return it == s.end() ? fallback : it->second.as_double();
}

std::string Value::get_string(const std::string& key, const std::string& fallback) const {
  const Struct& s = as_struct();
  auto it = s.find(key);
  return it == s.end() ? fallback : it->second.as_string();
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Struct& s = as_struct();
  auto it = s.find(key);
  return it == s.end() ? fallback : it->second.as_bool();
}

namespace {

void escape_into(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
  out << '"';
}

void debug_into(std::ostringstream& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNil: out << "null"; break;
    case Value::Type::kBool: out << (v.as_bool() ? "true" : "false"); break;
    case Value::Type::kInt: out << v.as_int(); break;
    case Value::Type::kDouble: out << v.as_double(); break;
    case Value::Type::kString: escape_into(out, v.as_string()); break;
    case Value::Type::kArray: {
      out << '[';
      bool first = true;
      for (const auto& e : v.as_array()) {
        if (!first) out << ',';
        first = false;
        debug_into(out, e);
      }
      out << ']';
      break;
    }
    case Value::Type::kStruct: {
      out << '{';
      bool first = true;
      for (const auto& [k, e] : v.as_struct()) {
        if (!first) out << ',';
        first = false;
        escape_into(out, k);
        out << ':';
        debug_into(out, e);
      }
      out << '}';
      break;
    }
  }
}

}  // namespace

std::string Value::debug_string() const {
  std::ostringstream out;
  debug_into(out, *this);
  return out.str();
}

}  // namespace gae::rpc
