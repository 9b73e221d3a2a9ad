#include "rpc/jsonrpc.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

// One buffer per message: encoding appends into one reserved std::string,
// decoding is one pass over the input text that builds the Value (or fills
// the Call/Response) as it goes, with no stream objects and no intermediate
// tree for the envelope.

namespace gae::rpc::json {

namespace {

/// What a small message usually needs; longer ones grow the string.
constexpr std::size_t kEncodeReserve = 256;

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// printf("%.17g"), plus ".0" when that reads as an integer so a double
/// stays a double through a round trip. JSON has no NaN or infinity: those
/// are written as null.
void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17);
  const std::string_view text(buf, static_cast<std::size_t>(r.ptr - buf));
  out += text;
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void append_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\b': escape = "\\b"; break;
      case '\f': escape = "\\f"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (c >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escape) {
      out += escape;
    } else {
      const char unicode[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out.append(unicode, sizeof(unicode));
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void append_value(std::string& out, const Value& v);

void append_array(std::string& out, const Array& array) {
  out.push_back('[');
  bool first = true;
  for (const auto& e : array) {
    if (!first) out.push_back(',');
    first = false;
    append_value(out, e);
  }
  out.push_back(']');
}

void append_value(std::string& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNil: out += "null"; break;
    case Value::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Type::kInt: append_int(out, v.as_int()); break;
    case Value::Type::kDouble: append_double(out, v.as_double()); break;
    case Value::Type::kString: append_string(out, v.as_string()); break;
    case Value::Type::kArray: append_array(out, v.as_array()); break;
    case Value::Type::kStruct: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.as_struct()) {
        if (!first) out.push_back(',');
        first = false;
        append_string(out, k);
        out.push_back(':');
        append_value(out, e);
      }
      out.push_back('}');
      break;
    }
  }
}

/// std::isspace in the C locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// True when `tok` is a JSON number:
/// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool is_json_number(std::string_view tok) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < tok.size() && is_digit(tok[i])) ++i;
    return i > start;
  };
  if (i < tok.size() && tok[i] == '-') ++i;
  if (i < tok.size() && tok[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < tok.size() && tok[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < tok.size() && (tok[i] == 'e' || tok[i] == 'E')) {
    ++i;
    if (i < tok.size() && (tok[i] == '+' || tok[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == tok.size();
}

/// Recursive-descent reader over the input text. The parsing members return
/// false on malformed input; document() and envelope() return the reason.
class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  /// Parses the whole text as one value.
  Status document(Value& out) {
    if (!value(out) || !finish()) return error_;
    return Status::ok();
  }

  /// Parses the whole text as an object and hands each member to
  /// `member(std::string&& key)`, which parses the member's value through
  /// value() and returns its success; a repeated key reaches `member` again
  /// (the last one wins, as in value()'s objects). `is_object` is false, and
  /// nothing reaches `member`, when the text is well-formed JSON of another
  /// kind.
  template <typename Member>
  Status envelope(bool& is_object, Member&& member) {
    skip_ws();
    is_object = pos_ < in_.size() && in_[pos_] == '{';
    if (!is_object) {
      Value ignored;
      return document(ignored);
    }
    if (!members(member) || !finish()) return error_;
    return Status::ok();
  }

  bool value(Value& out) {
    skip_ws();
    if (pos_ >= in_.size()) return fail("unexpected end of input");
    switch (in_[pos_]) {
      case '{': {
        out = Value(Struct{});
        Struct& obj = out.as_struct();
        return members([&](std::string&& key) {
          // Hinted at the end: encoders that sort their keys (ours does)
          // append in order.
          return value(obj.insert_or_assign(obj.end(), std::move(key), Value())->second);
        });
      }
      case '[': {
        out = Value(Array{});
        return array(out.as_array());
      }
      case '"': {
        out = Value(std::string());
        return string(out.as_string());
      }
      case 't': return keyword("true", Value(true), out);
      case 'f': return keyword("false", Value(false), out);
      case 'n': return keyword("null", Value(), out);
      default: return number(out);
    }
  }

  bool string(std::string& out) {
    skip_ws();
    if (pos_ >= in_.size() || in_[pos_] != '"') return fail("expected string");
    ++pos_;
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < in_.size() && in_[pos_] != '"' && in_[pos_] != '\\') ++pos_;
      out.append(in_.data() + run, pos_ - run);
      if (pos_ >= in_.size()) return fail("unterminated string");
      if (in_[pos_++] == '"') return true;
      if (pos_ >= in_.size()) return fail("unterminated escape");
      switch (in_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          if (!unicode_escape(out)) return false;
          break;
        default: return fail("unknown escape");
      }
    }
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && is_space(in_[pos_])) ++pos_;
  }

  bool fail(const std::string& what) {
    error_ = invalid_argument_error("json: " + what + " at offset " + std::to_string(pos_));
    return false;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Only whitespace may follow the top-level value.
  bool finish() {
    skip_ws();
    if (pos_ != in_.size()) return fail("trailing garbage");
    return true;
  }

  bool keyword(std::string_view kw, Value v, Value& out) {
    if (in_.substr(pos_, kw.size()) != kw) return fail("bad literal");
    pos_ += kw.size();
    out = std::move(v);
    return true;
  }

  /// The token is every following character that can appear in a number;
  /// it must be a JSON number as a whole and parse in full, so "1.2.3",
  /// "1.", "+5", "01" and out-of-range values are refused rather than read
  /// as a prefix.
  bool number(Value& out) {
    const std::size_t start = pos_;
    while (pos_ < in_.size()) {
      const char c = in_[pos_];
      if (!is_digit(c) && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E') break;
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    const std::string_view tok = in_.substr(start, pos_ - start);
    const auto parse = [&](auto number) {
      const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), number);
      if (r.ec != std::errc() || r.ptr != tok.data() + tok.size()) return false;
      out = Value(number);
      return true;
    };
    const bool is_double = tok.find_first_of(".eE") != std::string_view::npos;
    if (is_json_number(tok) && (is_double ? parse(0.0) : parse(std::int64_t{0}))) return true;
    error_ = invalid_argument_error("json: bad number '" + std::string(tok) + "'");
    return false;
  }

  /// Exactly four hex digits (a partial parse would decode "\u12g3" as
  /// 0x12), written as UTF-8 (BMP only; surrogate pairs unsupported).
  bool unicode_escape(std::string& out) {
    const char* hex = in_.data() + pos_;
    unsigned code = 0;
    if (in_.size() - pos_ < 4 || std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
      return fail("bad \\u escape");
    }
    pos_ += 4;
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
    return true;
  }

  /// Enters one array or object; false past kMaxDecodeDepth.
  bool descend() {
    if (++depth_ <= kMaxDecodeDepth) return true;
    return fail("nesting deeper than " + std::to_string(kMaxDecodeDepth));
  }

  bool array(Array& arr) {
    ++pos_;  // '['
    if (!descend()) return false;
    if (!consume(']')) {
      do {
        if (!value(arr.emplace_back())) return false;
      } while (consume(','));
      if (!consume(']')) return fail("expected ',' or ']'");
    }
    --depth_;
    return true;
  }

  /// The members of the object at pos_, each handed to `member`.
  template <typename Member>
  bool members(Member&& member) {
    ++pos_;  // '{'
    if (!descend()) return false;
    if (!consume('}')) {
      do {
        std::string key;
        if (!string(key)) return false;
        if (!consume(':')) return fail("expected ':'");
        if (!member(std::move(key))) return false;
      } while (consume(','));
      if (!consume('}')) return fail("expected ',' or '}'");
    }
    --depth_;
    return true;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  Status error_;
};

}  // namespace

std::string encode(const Value& v) {
  std::string out;
  out.reserve(kEncodeReserve);
  append_value(out, v);
  return out;
}

Result<Value> decode(const std::string& text) {
  Value v;
  const Status s = Parser(text).document(v);
  if (!s.is_ok()) return s;
  return v;
}

}  // namespace gae::rpc::json

namespace gae::rpc::jsonrpc {

// The envelopes are written with their members in key order, as encoding a
// Struct of them would.

std::string encode_call(const std::string& method, const Array& params, std::int64_t id) {
  std::string out;
  out.reserve(json::kEncodeReserve);
  out += "{\"id\":";
  json::append_int(out, id);
  out += ",\"jsonrpc\":\"2.0\",\"method\":";
  json::append_string(out, method);
  out += ",\"params\":";
  json::append_array(out, params);
  out += '}';
  return out;
}

std::string encode_response(const Value& result, std::int64_t id) {
  std::string out;
  out.reserve(json::kEncodeReserve);
  out += "{\"id\":";
  json::append_int(out, id);
  out += ",\"jsonrpc\":\"2.0\",\"result\":";
  json::append_value(out, result);
  out += '}';
  return out;
}

std::string encode_fault(int code, const std::string& message, std::int64_t id) {
  std::string out;
  out.reserve(json::kEncodeReserve);
  out += "{\"error\":{\"code\":";
  json::append_int(out, code);
  out += ",\"message\":";
  json::append_string(out, message);
  out += "},\"id\":";
  json::append_int(out, id);
  out += ",\"jsonrpc\":\"2.0\"}";
  return out;
}

namespace {

/// The message's integer id: 0 when absent; string and other ids are
/// INVALID_ARGUMENT, as this host only mints and answers integer ids.
Result<std::int64_t> message_id(const std::optional<Value>& id) {
  if (!id) return std::int64_t{0};
  if (!id->is_int()) return invalid_argument_error("jsonrpc: id must be an integer");
  return id->as_int();
}

}  // namespace

Result<Call> decode_call(const std::string& text) {
  std::optional<Value> method, params, id;
  json::Parser parser(text);
  bool is_object = false;
  const Status parsed = parser.envelope(is_object, [&](std::string&& key) {
    std::optional<Value> ignored;
    auto& slot = key == "method" ? method : key == "params" ? params : key == "id" ? id : ignored;
    return parser.value(slot.emplace());
  });
  if (!parsed.is_ok()) return parsed;
  if (!is_object) return invalid_argument_error("jsonrpc: request must be an object");
  if (method && !method->is_string()) {
    return invalid_argument_error("jsonrpc: method must be a string");
  }
  Call call;
  if (method) call.method = std::move(method->as_string());
  if (call.method.empty()) return invalid_argument_error("jsonrpc: missing method");
  auto call_id = message_id(id);
  if (!call_id.is_ok()) return call_id.status();
  call.id = call_id.value();
  if (params) {
    if (!params->is_array()) return invalid_argument_error("jsonrpc: params must be an array");
    call.params = std::move(params->as_array());
  }
  return call;
}

Result<Response> decode_response(const std::string& text) {
  std::optional<Value> result, error, id;
  json::Parser parser(text);
  bool is_object = false;
  const Status parsed = parser.envelope(is_object, [&](std::string&& key) {
    std::optional<Value> ignored;
    auto& slot = key == "result" ? result : key == "error" ? error : key == "id" ? id : ignored;
    return parser.value(slot.emplace());
  });
  if (!parsed.is_ok()) return parsed;
  if (!is_object) return invalid_argument_error("jsonrpc: response must be an object");
  auto resp_id = message_id(id);
  if (!resp_id.is_ok()) return resp_id.status();
  Response resp;
  resp.id = resp_id.value();
  if (error && !error->is_nil()) {
    const Value* code = error->find("code");
    const Value* message = error->find("message");
    if (!error->is_struct() || (code && !code->is_int()) || (message && !message->is_string())) {
      return invalid_argument_error("jsonrpc: malformed error " + error->debug_string());
    }
    resp.is_fault = true;
    resp.fault_code = code ? static_cast<int>(code->as_int()) : 0;
    resp.fault_string = message ? message->as_string() : std::string();
    return resp;
  }
  if (!result) return invalid_argument_error("jsonrpc: response missing result");
  resp.result = std::move(*result);
  return resp;
}

}  // namespace gae::rpc::jsonrpc
