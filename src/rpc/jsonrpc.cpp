#include "rpc/jsonrpc.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace gae::rpc::json {

namespace {

void encode_into(std::ostringstream& out, const Value& v);

void encode_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << static_cast<char>(c);
        }
    }
  }
  out << '"';
}

void encode_into(std::ostringstream& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNil: out << "null"; break;
    case Value::Type::kBool: out << (v.as_bool() ? "true" : "false"); break;
    case Value::Type::kInt: out << v.as_int(); break;
    case Value::Type::kDouble: {
      const double d = v.as_double();
      if (std::isfinite(d)) {
        std::ostringstream num;
        num.precision(17);
        num << d;
        std::string s = num.str();
        // Keep doubles round-trippable as doubles.
        if (s.find_first_of(".eE") == std::string::npos) s += ".0";
        out << s;
      } else {
        out << "null";  // JSON has no NaN/Inf
      }
      break;
    }
    case Value::Type::kString: encode_string(out, v.as_string()); break;
    case Value::Type::kArray: {
      out << '[';
      bool first = true;
      for (const auto& e : v.as_array()) {
        if (!first) out << ',';
        first = false;
        encode_into(out, e);
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
        encode_string(out, k);
        out << ':';
        encode_into(out, e);
      }
      out << '}';
      break;
    }
  }
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& in) : in_(in) {}

  Result<Value> parse() {
    auto v = parse_value();
    if (!v.is_ok()) return v;
    skip_ws();
    if (pos_ != in_.size()) {
      return invalid_argument_error("json: trailing garbage at offset " + std::to_string(pos_));
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) ++pos_;
  }

  Status err(const std::string& what) {
    return invalid_argument_error("json: " + what + " at offset " + std::to_string(pos_));
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> parse_value() {
    skip_ws();
    if (pos_ >= in_.size()) return err("unexpected end of input");
    const char c = in_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s.is_ok()) return s.status();
      return Value(std::move(s).value());
    }
    if (c == 't') {
      if (!consume_keyword("true")) return err("bad literal");
      return Value(true);
    }
    if (c == 'f') {
      if (!consume_keyword("false")) return err("bad literal");
      return Value(false);
    }
    if (c == 'n') {
      if (!consume_keyword("null")) return err("bad literal");
      return Value();
    }
    return parse_number();
  }

  bool consume_keyword(const char* kw) {
    const std::size_t n = std::char_traits<char>::length(kw);
    if (in_.compare(pos_, n, kw) != 0) return false;
    pos_ += n;
    return true;
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < in_.size() && (in_[pos_] == '-' || in_[pos_] == '+')) ++pos_;
    bool is_double = false;
    while (pos_ < in_.size()) {
      const char c = in_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if (pos_ < in_.size() && (in_[pos_] == '-' || in_[pos_] == '+')) ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return err("expected number");
    const std::string tok = in_.substr(start, pos_ - start);
    try {
      if (is_double) return Value(std::stod(tok));
      return Value(static_cast<std::int64_t>(std::stoll(tok)));
    } catch (...) {
      return invalid_argument_error("json: bad number '" + tok + "'");
    }
  }

  Result<std::string> parse_string() {
    if (!consume('"')) return err("expected string");
    std::string out;
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return err("unterminated escape");
      const char e = in_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return err("bad \\u escape");
          // Exactly four hex digits, each validated. stoul would accept a
          // partial parse ("12g3" -> 0x12) plus whitespace/sign prefixes,
          // silently decoding garbage instead of rejecting it.
          unsigned code = 0;
          for (std::size_t i = 0; i < 4; ++i) {
            const char h = in_[pos_ + i];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') {
              digit = static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              digit = static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              digit = static_cast<unsigned>(h - 'A') + 10;
            } else {
              return err("bad \\u escape");
            }
            code = (code << 4) | digit;
          }
          pos_ += 4;
          // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return err("unknown escape");
      }
    }
    return err("unterminated string");
  }

  /// Enters one array or object; false past kMaxDecodeDepth.
  bool descend() { return ++depth_ <= kMaxDecodeDepth; }
  /// Leaves it again with its value.
  Value ascend(Value v) {
    --depth_;
    return v;
  }

  Result<Value> parse_array() {
    consume('[');
    if (!descend()) return err("nesting deeper than " + std::to_string(kMaxDecodeDepth));
    Array arr;
    skip_ws();
    if (consume(']')) return ascend(Value(std::move(arr)));
    for (;;) {
      auto v = parse_value();
      if (!v.is_ok()) return v;
      arr.push_back(std::move(v).value());
      if (consume(']')) return ascend(Value(std::move(arr)));
      if (!consume(',')) return err("expected ',' or ']'");
    }
  }

  Result<Value> parse_object() {
    consume('{');
    if (!descend()) return err("nesting deeper than " + std::to_string(kMaxDecodeDepth));
    Struct obj;
    skip_ws();
    if (consume('}')) return ascend(Value(std::move(obj)));
    for (;;) {
      skip_ws();
      auto k = parse_string();
      if (!k.is_ok()) return k.status();
      if (!consume(':')) return err("expected ':'");
      auto v = parse_value();
      if (!v.is_ok()) return v;
      obj[std::move(k).value()] = std::move(v).value();
      if (consume('}')) return ascend(Value(std::move(obj)));
      if (!consume(',')) return err("expected ',' or '}'");
    }
  }

  const std::string& in_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string encode(const Value& v) {
  std::ostringstream out;
  encode_into(out, v);
  return out.str();
}

Result<Value> decode(const std::string& text) { return JsonParser(text).parse(); }

}  // namespace gae::rpc::json

namespace gae::rpc::jsonrpc {

std::string encode_call(const std::string& method, const Array& params, std::int64_t id) {
  Struct msg;
  msg["jsonrpc"] = Value("2.0");
  msg["method"] = Value(method);
  msg["params"] = Value(params);
  msg["id"] = Value(id);
  return json::encode(Value(std::move(msg)));
}

std::string encode_response(const Value& result, std::int64_t id) {
  Struct msg;
  msg["jsonrpc"] = Value("2.0");
  msg["result"] = result;
  msg["id"] = Value(id);
  return json::encode(Value(std::move(msg)));
}

std::string encode_fault(int code, const std::string& message, std::int64_t id) {
  Struct error;
  error["code"] = Value(static_cast<std::int64_t>(code));
  error["message"] = Value(message);
  Struct msg;
  msg["jsonrpc"] = Value("2.0");
  msg["error"] = Value(std::move(error));
  msg["id"] = Value(id);
  return json::encode(Value(std::move(msg)));
}

namespace {

/// The message's integer id (0 when absent). String and other ids are
/// INVALID_ARGUMENT: this host only mints and answers integer ids.
Result<std::int64_t> message_id(const Value& message) {
  const Value* id = message.find("id");
  if (!id) return std::int64_t{0};
  if (!id->is_int()) return invalid_argument_error("jsonrpc: id must be an integer");
  return id->as_int();
}

}  // namespace

Result<Call> decode_call(const std::string& text) {
  auto parsed = json::decode(text);
  if (!parsed.is_ok()) return parsed.status();
  const Value v = std::move(parsed).value();
  if (!v.is_struct()) return invalid_argument_error("jsonrpc: request must be an object");
  const Value* method = v.find("method");
  if (method && !method->is_string()) {
    return invalid_argument_error("jsonrpc: method must be a string");
  }
  Call call;
  if (method) call.method = method->as_string();
  if (call.method.empty()) return invalid_argument_error("jsonrpc: missing method");
  auto id = message_id(v);
  if (!id.is_ok()) return id.status();
  call.id = id.value();
  if (v.has("params")) {
    const Value& p = v.at("params");
    if (!p.is_array()) return invalid_argument_error("jsonrpc: params must be an array");
    call.params = p.as_array();
  }
  return call;
}

Result<Response> decode_response(const std::string& text) {
  auto parsed = json::decode(text);
  if (!parsed.is_ok()) return parsed.status();
  const Value v = std::move(parsed).value();
  if (!v.is_struct()) return invalid_argument_error("jsonrpc: response must be an object");
  auto id = message_id(v);
  if (!id.is_ok()) return id.status();
  Response resp;
  resp.id = id.value();
  if (v.has("error") && !v.at("error").is_nil()) {
    const Value& e = v.at("error");
    const Value* code = e.find("code");
    const Value* message = e.find("message");
    if (!e.is_struct() || (code && !code->is_int()) || (message && !message->is_string())) {
      return invalid_argument_error("jsonrpc: malformed error " + e.debug_string());
    }
    resp.is_fault = true;
    resp.fault_code = code ? static_cast<int>(code->as_int()) : 0;
    resp.fault_string = message ? message->as_string() : std::string();
    return resp;
  }
  if (!v.has("result")) return invalid_argument_error("jsonrpc: response missing result");
  resp.result = v.at("result");
  return resp;
}

}  // namespace gae::rpc::jsonrpc
