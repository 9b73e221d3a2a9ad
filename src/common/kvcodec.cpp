#include "common/kvcodec.h"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <vector>

namespace gae::kv {

namespace {
// The delimiters plus every byte std::isspace matches in the C locale
// (' ' and '\t'..'\r'): decode() splits tokens on all of them, not just ' '.
bool needs_escape(char c) {
  return c == '=' || c == '%' || c == ' ' || (c >= '\t' && c <= '\r');
}
}  // namespace

std::string escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (needs_escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> unescape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out += in[i];
      continue;
    }
    if (i + 2 >= in.size() || !std::isxdigit(static_cast<unsigned char>(in[i + 1])) ||
        !std::isxdigit(static_cast<unsigned char>(in[i + 2]))) {
      return invalid_argument_error("bad escape in kv token: " + in);
    }
    out += static_cast<char>(std::stoi(in.substr(i + 1, 2), nullptr, 16));
    i += 2;
  }
  return out;
}

std::string encode(const std::map<std::string, std::string>& fields) {
  std::string line;
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) line += ' ';
    first = false;
    line += escape(key) + "=" + escape(value);
  }
  return line;
}

Result<std::map<std::string, std::string>> decode(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return invalid_argument_error("kv token missing '=': " + token);
    }
    auto key = unescape(token.substr(0, eq));
    if (!key.is_ok()) return key.status();
    auto value = unescape(token.substr(eq + 1));
    if (!value.is_ok()) return value.status();
    fields[key.value()] = value.value();
  }
  return fields;
}

}  // namespace gae::kv
