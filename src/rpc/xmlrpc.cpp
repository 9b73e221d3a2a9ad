#include "rpc/xmlrpc.h"

#include <cctype>
#include <memory>
#include <sstream>
#include <vector>

namespace gae::rpc::xmlrpc {

namespace {

// ---------------------------------------------------------------------------
// Tiny XML DOM (elements + text only; attributes are skipped, which is all
// XML-RPC requires).
// ---------------------------------------------------------------------------

struct XmlNode {
  std::string name;
  std::string text;  // concatenated character data directly inside this node
  std::vector<XmlNode> children;

  const XmlNode* child(const std::string& tag) const {
    for (const auto& c : children) {
      if (c.name == tag) return &c;
    }
    return nullptr;
  }
};

std::string xml_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    const auto semi = s.find(';', i);
    if (semi == std::string::npos) {
      out.push_back(s[i]);
      continue;
    }
    const std::string ent = s.substr(i + 1, semi - i - 1);
    if (ent == "lt") out.push_back('<');
    else if (ent == "gt") out.push_back('>');
    else if (ent == "amp") out.push_back('&');
    else if (ent == "quot") out.push_back('"');
    else if (ent == "apos") out.push_back('\'');
    else if (!ent.empty() && ent[0] == '#') {
      // numeric character reference (decimal or hex); ASCII only
      try {
        const long code = (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X'))
                              ? std::stol(ent.substr(2), nullptr, 16)
                              : std::stol(ent.substr(1));
        if (code >= 0 && code < 128) out.push_back(static_cast<char>(code));
      } catch (...) {
        // ignore malformed reference
      }
    } else {
      out.append(s, i, semi - i + 1);  // unknown entity: keep verbatim
    }
    i = semi;
  }
  return out;
}

/// Recursive-descent parser over the XML-RPC XML subset.
class XmlParser {
 public:
  explicit XmlParser(const std::string& input) : in_(input) {}

  Result<XmlNode> parse() {
    skip_prolog();
    auto node = parse_element();
    if (!node.is_ok()) return node.status();
    skip_ws();
    return node;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) ++pos_;
  }

  void skip_prolog() {
    skip_ws();
    // <?xml ... ?> declaration and comments before the root element
    for (;;) {
      if (in_.compare(pos_, 5, "<?xml") == 0) {
        const auto end = in_.find("?>", pos_);
        pos_ = (end == std::string::npos) ? in_.size() : end + 2;
      } else if (in_.compare(pos_, 4, "<!--") == 0) {
        const auto end = in_.find("-->", pos_);
        pos_ = (end == std::string::npos) ? in_.size() : end + 3;
      } else {
        break;
      }
      skip_ws();
    }
  }

  Result<XmlNode> parse_element() {
    skip_ws();
    if (pos_ >= in_.size() || in_[pos_] != '<') {
      return invalid_argument_error("xml: expected '<' at offset " + std::to_string(pos_));
    }
    ++pos_;
    XmlNode node;
    while (pos_ < in_.size() && !std::isspace(static_cast<unsigned char>(in_[pos_])) &&
           in_[pos_] != '>' && in_[pos_] != '/') {
      node.name.push_back(in_[pos_++]);
    }
    if (node.name.empty()) return invalid_argument_error("xml: empty tag name");
    // Skip attributes up to '>' or '/>'.
    while (pos_ < in_.size() && in_[pos_] != '>' && in_[pos_] != '/') ++pos_;
    if (pos_ < in_.size() && in_[pos_] == '/') {
      ++pos_;
      if (pos_ >= in_.size() || in_[pos_] != '>') {
        return invalid_argument_error("xml: malformed self-closing tag <" + node.name);
      }
      ++pos_;
      return node;  // <tag/>
    }
    if (pos_ >= in_.size()) return invalid_argument_error("xml: unterminated tag <" + node.name);
    ++pos_;  // consume '>'

    // Content: interleaved text and child elements until </name>.
    for (;;) {
      if (pos_ >= in_.size()) {
        return invalid_argument_error("xml: missing close tag for <" + node.name + ">");
      }
      if (in_[pos_] == '<') {
        if (in_.compare(pos_, 4, "<!--") == 0) {
          const auto end = in_.find("-->", pos_);
          if (end == std::string::npos) return invalid_argument_error("xml: unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
          pos_ += 2;
          std::string close;
          while (pos_ < in_.size() && in_[pos_] != '>') close.push_back(in_[pos_++]);
          if (pos_ >= in_.size()) return invalid_argument_error("xml: unterminated close tag");
          ++pos_;
          if (close != node.name) {
            return invalid_argument_error("xml: mismatched close tag </" + close +
                                          "> for <" + node.name + ">");
          }
          node.text = xml_unescape(node.text);
          return node;
        }
        auto child = parse_element();
        if (!child.is_ok()) return child.status();
        node.children.push_back(std::move(child).value());
      } else {
        node.text.push_back(in_[pos_++]);
      }
    }
  }

  const std::string& in_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Value encoding
// ---------------------------------------------------------------------------

void encode_value(std::ostringstream& out, const Value& v);

void encode_value_body(std::ostringstream& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNil:
      out << "<nil/>";
      break;
    case Value::Type::kBool:
      out << "<boolean>" << (v.as_bool() ? 1 : 0) << "</boolean>";
      break;
    case Value::Type::kInt:
      out << "<i8>" << v.as_int() << "</i8>";
      break;
    case Value::Type::kDouble: {
      std::ostringstream num;
      num.precision(17);
      num << v.as_double();
      out << "<double>" << num.str() << "</double>";
      break;
    }
    case Value::Type::kString:
      out << "<string>" << xml_escape(v.as_string()) << "</string>";
      break;
    case Value::Type::kArray:
      out << "<array><data>";
      for (const auto& e : v.as_array()) encode_value(out, e);
      out << "</data></array>";
      break;
    case Value::Type::kStruct:
      out << "<struct>";
      for (const auto& [name, member] : v.as_struct()) {
        out << "<member><name>" << xml_escape(name) << "</name>";
        encode_value(out, member);
        out << "</member>";
      }
      out << "</struct>";
      break;
  }
}

void encode_value(std::ostringstream& out, const Value& v) {
  out << "<value>";
  encode_value_body(out, v);
  out << "</value>";
}

// ---------------------------------------------------------------------------
// Value decoding
// ---------------------------------------------------------------------------

Result<Value> decode_value(const XmlNode& value_node);

Result<Value> decode_typed(const XmlNode& t) {
  if (t.name == "nil") return Value();
  if (t.name == "boolean") {
    const std::string& s = t.text;
    if (s == "1" || s == "true") return Value(true);
    if (s == "0" || s == "false") return Value(false);
    return invalid_argument_error("xmlrpc: bad boolean '" + s + "'");
  }
  if (t.name == "int" || t.name == "i4" || t.name == "i8") {
    try {
      return Value(static_cast<std::int64_t>(std::stoll(t.text)));
    } catch (...) {
      return invalid_argument_error("xmlrpc: bad int '" + t.text + "'");
    }
  }
  if (t.name == "double") {
    try {
      return Value(std::stod(t.text));
    } catch (...) {
      return invalid_argument_error("xmlrpc: bad double '" + t.text + "'");
    }
  }
  if (t.name == "string") return Value(t.text);
  if (t.name == "array") {
    const XmlNode* data = t.child("data");
    if (!data) return invalid_argument_error("xmlrpc: array without <data>");
    Array arr;
    for (const auto& c : data->children) {
      if (c.name != "value") continue;
      auto e = decode_value(c);
      if (!e.is_ok()) return e.status();
      arr.push_back(std::move(e).value());
    }
    return Value(std::move(arr));
  }
  if (t.name == "struct") {
    Struct st;
    for (const auto& m : t.children) {
      if (m.name != "member") continue;
      const XmlNode* name = m.child("name");
      const XmlNode* val = m.child("value");
      if (!name || !val) return invalid_argument_error("xmlrpc: malformed struct member");
      auto e = decode_value(*val);
      if (!e.is_ok()) return e.status();
      st.emplace(name->text, std::move(e).value());
    }
    return Value(std::move(st));
  }
  return invalid_argument_error("xmlrpc: unknown value type <" + t.name + ">");
}

Result<Value> decode_value(const XmlNode& value_node) {
  // <value>text</value> with no type element means string.
  for (const auto& c : value_node.children) return decode_typed(c);
  return Value(value_node.text);
}

}  // namespace

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

std::string encode_call(const std::string& method, const Array& params) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\"?><methodCall><methodName>" << xml_escape(method)
      << "</methodName>";
  out << "<params>";
  for (const auto& p : params) {
    out << "<param>";
    encode_value(out, p);
    out << "</param>";
  }
  out << "</params></methodCall>";
  return out.str();
}

std::string encode_response(const Value& result) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\"?><methodResponse><params><param>";
  encode_value(out, result);
  out << "</param></params></methodResponse>";
  return out.str();
}

std::string encode_fault(int code, const std::string& message) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\"?><methodResponse><fault>";
  Struct fault;
  fault.emplace("faultCode", Value(static_cast<std::int64_t>(code)));
  fault.emplace("faultString", Value(message));
  encode_value(out, Value(std::move(fault)));
  out << "</fault></methodResponse>";
  return out.str();
}

Result<Call> decode_call(const std::string& xml) {
  XmlParser parser(xml);
  auto rootr = parser.parse();
  if (!rootr.is_ok()) return rootr.status();
  const XmlNode root = std::move(rootr).value();
  if (root.name != "methodCall") {
    return invalid_argument_error("xmlrpc: expected <methodCall>, got <" + root.name + ">");
  }
  const XmlNode* name = root.child("methodName");
  if (!name) return invalid_argument_error("xmlrpc: missing <methodName>");
  Call call;
  call.method = name->text;
  if (const XmlNode* params = root.child("params")) {
    for (const auto& p : params->children) {
      if (p.name != "param") continue;
      const XmlNode* v = p.child("value");
      if (!v) return invalid_argument_error("xmlrpc: <param> without <value>");
      auto e = decode_value(*v);
      if (!e.is_ok()) return e.status();
      call.params.push_back(std::move(e).value());
    }
  }
  return call;
}

Result<Response> decode_response(const std::string& xml) {
  XmlParser parser(xml);
  auto rootr = parser.parse();
  if (!rootr.is_ok()) return rootr.status();
  const XmlNode root = std::move(rootr).value();
  if (root.name != "methodResponse") {
    return invalid_argument_error("xmlrpc: expected <methodResponse>, got <" + root.name + ">");
  }
  Response resp;
  if (const XmlNode* fault = root.child("fault")) {
    const XmlNode* v = fault->child("value");
    if (!v) return invalid_argument_error("xmlrpc: <fault> without <value>");
    auto e = decode_value(*v);
    if (!e.is_ok()) return e.status();
    const Value fv = std::move(e).value();
    resp.is_fault = true;
    resp.fault_code = static_cast<int>(fv.get_int("faultCode", 0));
    resp.fault_string = fv.get_string("faultString", "");
    return resp;
  }
  const XmlNode* params = root.child("params");
  if (!params) return invalid_argument_error("xmlrpc: response without <params> or <fault>");
  const XmlNode* param = params->child("param");
  if (!param) return invalid_argument_error("xmlrpc: response <params> without <param>");
  const XmlNode* v = param->child("value");
  if (!v) return invalid_argument_error("xmlrpc: response <param> without <value>");
  auto e = decode_value(*v);
  if (!e.is_ok()) return e.status();
  resp.result = std::move(e).value();
  return resp;
}

}  // namespace gae::rpc::xmlrpc
