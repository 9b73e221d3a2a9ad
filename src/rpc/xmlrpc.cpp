#include "rpc/xmlrpc.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

namespace gae::rpc::xmlrpc {

namespace {

// ---------------------------------------------------------------------------
// Value encoding: one string, appended in place.
// ---------------------------------------------------------------------------

void escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
}

/// Appends a number the way an ostream does: decimal ints, and doubles as
/// `precision(17)` prints them ("%.17g": 0.10000000000000001, -0, inf).
template <typename T>
void number_into(std::string& out, T v) {
  char buf[32];
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), v);
  }
  out.append(buf, r.ptr);
}

void encode_value(std::string& out, const Value& v) {
  out += "<value>";
  switch (v.type()) {
    case Value::Type::kNil:
      out += "<nil/>";
      break;
    case Value::Type::kBool:
      out += v.as_bool() ? "<boolean>1</boolean>" : "<boolean>0</boolean>";
      break;
    case Value::Type::kInt:
      out += "<i8>";
      number_into(out, v.as_int());
      out += "</i8>";
      break;
    case Value::Type::kDouble:
      out += "<double>";
      number_into(out, v.as_double());
      out += "</double>";
      break;
    case Value::Type::kString:
      out += "<string>";
      escape_into(out, v.as_string());
      out += "</string>";
      break;
    case Value::Type::kArray:
      out += "<array><data>";
      for (const auto& e : v.as_array()) encode_value(out, e);
      out += "</data></array>";
      break;
    case Value::Type::kStruct:
      out += "<struct>";
      for (const auto& [name, member] : v.as_struct()) {
        out += "<member><name>";
        escape_into(out, name);
        out += "</name>";
        encode_value(out, member);
        out += "</member>";
      }
      out += "</struct>";
      break;
  }
  out += "</value>";
}

constexpr std::string_view kProlog = "<?xml version=\"1.0\"?>";
constexpr std::size_t kReserveBytes = 1024;

// ---------------------------------------------------------------------------
// Decoding: one pass of a pull reader over the body, building Values as it
// goes. It reads the XML subset XML-RPC needs: elements, text, comments and
// the five entities plus ASCII character references; attributes are skipped.
// An element the decoder does not use is still read to its close tag, so a
// body is accepted only if it is well-formed through the root's close tag;
// bytes after that are ignored.
// ---------------------------------------------------------------------------

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string xml_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    const auto semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      out.push_back(s[i]);
      continue;
    }
    const std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "lt") out.push_back('<');
    else if (ent == "gt") out.push_back('>');
    else if (ent == "amp") out.push_back('&');
    else if (ent == "quot") out.push_back('"');
    else if (ent == "apos") out.push_back('\'');
    else if (!ent.empty() && ent[0] == '#') {
      // numeric character reference (decimal or hex); ASCII only
      try {
        const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
        const long code =
            std::stol(std::string(ent.substr(hex ? 2 : 1)), nullptr, hex ? 16 : 10);
        if (code >= 0 && code < 128) out.push_back(static_cast<char>(code));
      } catch (...) {
        // ignore malformed reference
      }
    } else {
      out.append(s.substr(i, semi - i + 1));  // unknown entity: keep verbatim
    }
    i = semi;
  }
  return out;
}

/// The character data directly inside one element — comments and child
/// elements cut out, segments joined, then entities resolved. The common
/// single segment without '&' stays a view into the body and is copied once,
/// by take().
class Text {
 public:
  void add(std::string_view segment) {
    if (segment.empty()) return;
    if (!joined_ && view_.empty()) {
      view_ = segment;
      return;
    }
    if (!joined_) own_.assign(view_);
    joined_ = true;
    own_.append(segment);
    view_ = own_;
  }

  /// Resolves entities. Afterwards view()[view().size()] is readable and is
  /// '\0' or the '<' that ended the text, so strtoll/strtod stop there.
  void resolve() {
    if (view_.find('&') == std::string_view::npos) return;
    own_ = xml_unescape(view_);
    joined_ = true;
    view_ = own_;
  }

  std::string_view view() const { return view_; }
  std::string take() { return joined_ ? std::move(own_) : std::string(view_); }

 private:
  std::string_view view_;
  std::string own_;
  bool joined_ = false;
};

/// An opened start tag.
struct Tag {
  std::string_view name;
  bool empty = false;  // <name/>: no content and no close tag
};

class XmlReader {
 public:
  explicit XmlReader(std::string_view in) : in_(in) {}

  const Status& error() const { return error_; }

  /// Records the first error; always false, so callers `return fail(...)`.
  bool fail(std::string message) {
    if (error_.is_ok()) error_ = invalid_argument_error(std::move(message));
    return false;
  }

  /// Skips the <?xml ...?> declaration and comments, then opens the root.
  bool open_root(Tag& tag) {
    skip_ws();
    for (;;) {
      if (in_.substr(pos_, 5) == "<?xml") {
        const auto end = in_.find("?>", pos_);
        pos_ = end == std::string_view::npos ? in_.size() : end + 2;
      } else if (in_.substr(pos_, 4) == "<!--") {
        const auto end = in_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? in_.size() : end + 3;
      } else {
        break;
      }
      skip_ws();
    }
    return open(tag);
  }

  /// Opens the start tag at the cursor: '<', a name, skipped attributes,
  /// then '>' or '/>'.
  bool open(Tag& tag) {
    skip_ws();
    if (pos_ >= in_.size() || in_[pos_] != '<') {
      return fail("xml: expected '<' at offset " + std::to_string(pos_));
    }
    const std::size_t start = ++pos_;
    while (pos_ < in_.size() && !is_space(in_[pos_]) && in_[pos_] != '>' && in_[pos_] != '/') {
      ++pos_;
    }
    tag.name = in_.substr(start, pos_ - start);
    if (tag.name.empty()) return fail("xml: empty tag name");
    pos_ = std::min(in_.find_first_of("/>", pos_), in_.size());
    if (pos_ < in_.size() && in_[pos_] == '/') {
      if (++pos_ >= in_.size() || in_[pos_] != '>') {
        return fail("xml: malformed self-closing tag <" + std::string(tag.name));
      }
      ++pos_;
      tag.empty = true;
      return true;
    }
    if (pos_ >= in_.size()) return fail("xml: unterminated tag <" + std::string(tag.name));
    ++pos_;
    tag.empty = false;
    if (++depth_ > kMaxDecodeDepth) {
      return fail("xml: elements nested deeper than " + std::to_string(kMaxDecodeDepth));
    }
    return true;
  }

  /// Calls `on_child(tag)` for each child element of the open element
  /// `parent`, in order; `on_child` must read the child through its close
  /// tag. Character data directly inside `parent` goes to `text` when it is
  /// non-null.
  template <typename F>
  bool children(const Tag& parent, F&& on_child, Text* text = nullptr) {
    if (parent.empty) return true;
    bool child = false;
    for (;;) {
      if (!next(parent, text, child)) return false;
      if (!child) return true;
      Tag c;
      if (!open(c) || !on_child(c)) return false;
    }
  }

  /// Reads the rest of the open element `tag`, checking that it is
  /// well-formed and keeping nothing but its character data (into `text`,
  /// when non-null).
  bool finish(const Tag& tag, Text* text = nullptr) {
    return children(tag, [this](const Tag& c) { return finish(c); }, text);
  }

  /// finish() keeping the character data, entities resolved.
  bool text_of(const Tag& tag, Text& text) {
    if (!finish(tag, &text)) return false;
    text.resolve();
    return true;
  }

  /// Where the cursor stands; rewind() returns to it.
  struct Mark {
    std::size_t pos;
    int depth;
  };
  Mark mark() const { return {pos_, depth_}; }
  void rewind(Mark m) {
    pos_ = m.pos;
    depth_ = m.depth;
    error_ = Status::ok();
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && is_space(in_[pos_])) ++pos_;
  }

  /// Reads the content of the open element `tag` up to its next child
  /// (`child` = true, cursor on the child's '<') or through its close tag
  /// (`child` = false). Character data goes to `text` when it is non-null.
  bool next(const Tag& tag, Text* text, bool& child) {
    for (;;) {
      if (pos_ >= in_.size()) {
        return fail("xml: missing close tag for <" + std::string(tag.name) + ">");
      }
      if (in_[pos_] != '<') {
        const std::size_t end = std::min(in_.find('<', pos_), in_.size());
        if (text) text->add(in_.substr(pos_, end - pos_));
        pos_ = end;
        continue;
      }
      if (in_.substr(pos_, 4) == "<!--") {
        const auto end = in_.find("-->", pos_);
        if (end == std::string_view::npos) return fail("xml: unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
        const auto gt = in_.find('>', pos_ + 2);
        if (gt == std::string_view::npos) return fail("xml: unterminated close tag");
        const std::string_view close = in_.substr(pos_ + 2, gt - pos_ - 2);
        pos_ = gt + 1;
        if (close != tag.name) {
          return fail("xml: mismatched close tag </" + std::string(close) + "> for <" +
                      std::string(tag.name) + ">");
        }
        --depth_;
        child = false;
        return true;
      }
      child = true;
      return true;
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  Status error_;
};

bool decode_value(XmlReader& r, const Tag& value, Value& out);

/// std::stoll/std::stod semantics over text ending at '\0' or '<': leading
/// whitespace and trailing junk are accepted, no digits or overflow is not.
/// strtod also flags ERANGE on a subnormal result, which is still the nearest
/// double (and the encoder writes such values); only overflow and underflow
/// to zero are out of range.
template <typename T>
bool parse_number(std::string_view s, T& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const int saved = errno;
  errno = 0;
  bool in_range = true;
  if constexpr (std::is_floating_point_v<T>) {
    out = std::strtod(s.data(), &end);
    in_range = errno != ERANGE || (out != 0 && std::isfinite(out));
  } else {
    out = std::strtoll(s.data(), &end, 10);
    in_range = errno != ERANGE;
  }
  errno = saved;
  return end != s.data() && in_range;
}

/// Decodes the open typed element `t` (the child of a <value>).
bool decode_typed(XmlReader& r, const Tag& t, Value& out) {
  const std::string_view type = t.name;
  if (type == "nil") {
    out = Value();
    return r.finish(t);
  }
  if (type == "array") {
    Array arr;
    bool have_data = false;
    const bool ok = r.children(t, [&](const Tag& c) {
      if (have_data || c.name != "data") return r.finish(c);
      have_data = true;
      return r.children(c, [&](const Tag& v) {
        if (v.name != "value") return r.finish(v);
        arr.emplace_back();
        return decode_value(r, v, arr.back());
      });
    });
    if (!ok) return false;
    if (!have_data) return r.fail("xmlrpc: array without <data>");
    out = Value(std::move(arr));
    return true;
  }
  if (type == "struct") {
    Struct st;
    const bool ok = r.children(t, [&](const Tag& m) {
      if (m.name != "member") return r.finish(m);
      bool have_name = false, have_value = false;
      std::string name;
      Value member;
      const bool member_ok = r.children(m, [&](const Tag& c) {
        if (!have_name && c.name == "name") {
          have_name = true;
          Text text;
          if (!r.text_of(c, text)) return false;
          name = text.take();
          return true;
        }
        if (!have_value && c.name == "value") {
          have_value = true;
          return decode_value(r, c, member);
        }
        return r.finish(c);
      });
      if (!member_ok) return false;
      if (!have_name || !have_value) return r.fail("xmlrpc: malformed struct member");
      st.emplace_hint(st.end(), std::move(name), std::move(member));  // first one wins
      return true;
    });
    if (!ok) return false;
    out = Value(std::move(st));
    return true;
  }

  const bool is_int = type == "int" || type == "i4" || type == "i8";
  if (!is_int && type != "boolean" && type != "double" && type != "string") {
    return r.fail("xmlrpc: unknown value type <" + std::string(type) + ">");
  }
  Text text;
  if (!r.text_of(t, text)) return false;
  const std::string_view s = text.view();
  if (type == "string") {
    out = Value(text.take());
  } else if (type == "boolean") {
    if (s == "1" || s == "true") out = Value(true);
    else if (s == "0" || s == "false") out = Value(false);
    else return r.fail("xmlrpc: bad boolean '" + std::string(s) + "'");
  } else if (is_int) {
    long long n = 0;
    if (!parse_number(s, n)) return r.fail("xmlrpc: bad int '" + std::string(s) + "'");
    out = Value(static_cast<std::int64_t>(n));
  } else {
    double d = 0;
    if (!parse_number(s, d)) return r.fail("xmlrpc: bad double '" + std::string(s) + "'");
    out = Value(d);
  }
  return true;
}

/// Decodes the open <value> element: its first child element is the typed
/// value; with none, its text is a string.
bool decode_value(XmlReader& r, const Tag& value, Value& out) {
  Text text;
  bool typed = false;
  const bool ok = r.children(
      value,
      [&](const Tag& c) {
        if (typed) return r.finish(c);
        typed = true;
        return decode_typed(r, c, out);
      },
      &text);
  if (!ok) return false;
  if (!typed) {
    text.resolve();
    out = Value(text.take());
  }
  return true;
}

/// Decodes the first <value> child of the open element `parent`; a parent
/// without one fails with `missing`.
bool decode_first_value(XmlReader& r, const Tag& parent, Value& out, const char* missing) {
  bool found = false;
  const bool ok = r.children(parent, [&](const Tag& c) {
    if (found || c.name != "value") return r.finish(c);
    found = true;
    return decode_value(r, c, out);
  });
  if (!ok) return false;
  return found || r.fail(missing);
}

/// The fault a decoded <fault> value carries. A fault that is not a struct,
/// or whose members have the wrong types, is INVALID_ARGUMENT.
Result<Response> fault_response(const Value& fault) {
  const Value* code = fault.find("faultCode");
  const Value* message = fault.find("faultString");
  if (!fault.is_struct() || (code && !code->is_int()) || (message && !message->is_string())) {
    return invalid_argument_error("xmlrpc: malformed fault " + fault.debug_string());
  }
  Response resp;
  resp.is_fault = true;
  resp.fault_code = code ? static_cast<int>(code->as_int()) : 0;
  resp.fault_string = message ? message->as_string() : std::string();
  return resp;
}

}  // namespace

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape_into(out, s);
  return out;
}

std::string encode_call(const std::string& method, const Array& params) {
  std::string out;
  out.reserve(kReserveBytes);
  out += kProlog;
  out += "<methodCall><methodName>";
  escape_into(out, method);
  out += "</methodName><params>";
  for (const auto& p : params) {
    out += "<param>";
    encode_value(out, p);
    out += "</param>";
  }
  out += "</params></methodCall>";
  return out;
}

std::string encode_response(const Value& result) {
  std::string out;
  out.reserve(kReserveBytes);
  out += kProlog;
  out += "<methodResponse><params><param>";
  encode_value(out, result);
  out += "</param></params></methodResponse>";
  return out;
}

std::string encode_fault(int code, const std::string& message) {
  std::string out;
  out.reserve(kReserveBytes);
  out += kProlog;
  out += "<methodResponse><fault><value><struct><member><name>faultCode</name><value><i8>";
  number_into(out, static_cast<std::int64_t>(code));
  out += "</i8></value></member><member><name>faultString</name><value><string>";
  escape_into(out, message);
  out += "</string></value></member></struct></value></fault></methodResponse>";
  return out;
}

Result<Call> decode_call(const std::string& xml) {
  XmlReader r(xml);
  Tag root;
  if (!r.open_root(root)) return r.error();
  if (root.name != "methodCall") {
    return invalid_argument_error("xmlrpc: expected <methodCall>, got <" +
                                  std::string(root.name) + ">");
  }
  Call call;
  bool have_name = false, have_params = false;
  const bool ok = r.children(root, [&](const Tag& c) {
    if (!have_name && c.name == "methodName") {
      have_name = true;
      Text text;
      if (!r.text_of(c, text)) return false;
      call.method = text.take();
      return true;
    }
    if (!have_params && c.name == "params") {
      have_params = true;
      return r.children(c, [&](const Tag& p) {
        if (p.name != "param") return r.finish(p);
        call.params.emplace_back();
        return decode_first_value(r, p, call.params.back(),
                                  "xmlrpc: <param> without <value>");
      });
    }
    return r.finish(c);
  });
  if (!ok) return r.error();
  if (!have_name) return invalid_argument_error("xmlrpc: missing <methodName>");
  return call;
}

Result<Response> decode_response(const std::string& xml) {
  XmlReader r(xml);
  Tag root;
  if (!r.open_root(root)) return r.error();
  if (root.name != "methodResponse") {
    return invalid_argument_error("xmlrpc: expected <methodResponse>, got <" +
                                  std::string(root.name) + ">");
  }
  // A <fault> wins over <params> wherever it stands, so a <params> that
  // fails to decode is the answer only if no <fault> follows it.
  bool have_fault = false, have_params = false;
  Value fault, result;
  Status params_error;
  const bool ok = r.children(root, [&](const Tag& c) {
    if (!have_fault && c.name == "fault") {
      have_fault = true;
      return decode_first_value(r, c, fault, "xmlrpc: <fault> without <value>");
    }
    if (have_fault || have_params || c.name != "params") return r.finish(c);
    have_params = true;
    const XmlReader::Mark start = r.mark();
    bool found = false;
    const bool params_ok = r.children(c, [&](const Tag& p) {
      if (found || p.name != "param") return r.finish(p);
      found = true;
      return decode_first_value(r, p, result, "xmlrpc: response <param> without <value>");
    });
    if (params_ok) {
      if (!found) {
        params_error = invalid_argument_error("xmlrpc: response <params> without <param>");
      }
      return true;
    }
    // Decoding stopped inside <params>: keep its error and read the element
    // again for well-formedness only, since a later <fault> still wins.
    params_error = r.error();
    r.rewind(start);
    return r.finish(c);
  });
  if (!ok) return r.error();
  if (have_fault) return fault_response(fault);
  if (!have_params) {
    return invalid_argument_error("xmlrpc: response without <params> or <fault>");
  }
  if (!params_error.is_ok()) return params_error;
  Response resp;
  resp.result = std::move(result);
  return resp;
}

}  // namespace gae::rpc::xmlrpc
