#include "rpc/http.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <string_view>

namespace gae::rpc::http {

namespace {

/// The most a head read asks for. The head is parsed in place, through
/// string_views into the buffer it was read into.
constexpr std::size_t kReadChunk = 4096;

/// std::isspace in the C locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

char to_lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// True when `s` equals `lower`, ignoring the case of `s`.
bool iequals(std::string_view s, std::string_view lower) {
  return s.size() == lower.size() &&
         std::equal(s.begin(), s.end(), lower.begin(),
                    [](char a, char b) { return to_lower(a) == b; });
}

void append_int(std::string& out, long long v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_header(std::string& out, std::string_view name, std::string_view value) {
  out += name;
  out += ": ";
  out += value;
  out += "\r\n";
}

/// Splits the head into lines at '\n', as std::getline does, dropping one
/// trailing '\r' from each.
class Lines {
 public:
  explicit Lines(std::string_view text) : text_(text) {}

  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return true;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The next whitespace-separated token of `s` (what `istream >> string`
/// reads), or "" when none is left.
std::string_view next_token(std::string_view& s) {
  std::size_t b = 0;
  while (b < s.size() && is_space(s[b])) ++b;
  std::size_t e = b;
  while (e < s.size() && !is_space(s[e])) ++e;
  const std::string_view token = s.substr(b, e - b);
  s.remove_prefix(e);
  return token;
}

/// Reads until the blank line that ends the head. `buf` receives the head,
/// the "\r\n\r\n" and whatever body bytes the last read carried; returns the
/// head's length.
Result<std::size_t> read_head(Stream& stream, std::string& buf, std::size_t max_header_bytes) {
  std::size_t scanned = 0;  // the marker cannot start before this
  for (;;) {
    const auto marker = buf.find("\r\n\r\n", scanned);
    if (marker != std::string::npos) return marker;
    scanned = buf.size() < 3 ? 0 : buf.size() - 3;
    const std::size_t had = buf.size();
    buf.resize(had + kReadChunk);
    auto r = stream.read_some(buf.data() + had, kReadChunk);
    buf.resize(had + (r.is_ok() ? r.value() : 0));
    if (!r.is_ok()) return r.status();
    if (r.value() == 0) {
      if (buf.empty()) return unavailable_error("connection closed");
      return invalid_argument_error("http: truncated header block");
    }
    if (buf.size() > max_header_bytes) {
      return invalid_argument_error("http: header block too large");
    }
  }
}

/// Parses a header value as a non-negative decimal int (clamped to 2e9).
/// -1 on empty or non-numeric values — callers treat that as absent.
int header_value_int(std::string_view value) {
  if (value.empty()) return -1;
  long long parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return -1;
    parsed = parsed * 10 + (c - '0');
    if (parsed > 2'000'000'000LL) return 2'000'000'000;
  }
  return static_cast<int>(parsed);
}

/// The header values of one head, as trimmed views into the buffer the head
/// was read into (empty = absent), and the body length it declares.
struct HeadFields {
  std::string_view content_type;
  std::string_view connection;
  std::string_view session;
  std::string_view trace;
  std::string_view deadline;
  std::string_view tier;
  std::size_t content_length = 0;
};

/// Parses the header lines left in `lines` into `head`, for requests and
/// responses alike: names match in any case, names and values are trimmed,
/// the last of a repeated name wins, and any header the fabric does not
/// speak is skipped.
Status parse_headers(Lines& lines, HeadFields& head, std::size_t max_body_bytes) {
  std::optional<std::string_view> content_length;
  std::string_view line;
  while (lines.next(line)) {
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) {
      return invalid_argument_error("http: malformed header: " + std::string(line));
    }
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "content-type")) {
      head.content_type = value;
    } else if (iequals(name, "content-length")) {
      content_length = value;
    } else if (iequals(name, "connection")) {
      head.connection = value;
    } else if (iequals(name, "x-clarens-session")) {
      head.session = value;
    } else if (iequals(name, "x-gae-trace")) {
      head.trace = value;
    } else if (iequals(name, "x-gae-deadline")) {
      head.deadline = value;
    } else if (iequals(name, "x-gae-tier")) {
      head.tier = value;
    }
  }
  if (!content_length) return Status::ok();
  // Strict parse: digits only, every byte checked, range-checked against the
  // body cap as the digits accumulate (so "999...9" cannot wrap). A partial
  // parse ("123abc" -> 123) or a sign ("-1" -> huge) would desync the
  // framing from what the peer actually sent.
  const std::string_view text = *content_length;
  if (text.empty()) return invalid_argument_error("http: bad content-length: empty");
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return invalid_argument_error("http: bad content-length: " + std::string(text));
    }
    head.content_length = head.content_length * 10 + static_cast<std::size_t>(c - '0');
    if (head.content_length > max_body_bytes) {
      return invalid_argument_error("http: body too large");
    }
  }
  return Status::ok();
}

/// Turns `buf` (head, marker and spilled body bytes, as read_head left it)
/// into the body: drops the head, then reads the rest of the
/// `content_length` bytes with one read_exact.
Result<std::string> read_body(Stream& stream, std::string buf, std::size_t body_start,
                              std::size_t content_length) {
  const std::size_t spilled = buf.size() - body_start;
  if (spilled > content_length) {
    // Pipelined extra bytes are unsupported by this minimal framing.
    return invalid_argument_error("http: unexpected bytes after body");
  }
  buf.erase(0, body_start);
  if (spilled < content_length) {
    buf.resize(content_length);
    const Status s = stream.read_exact(buf.data() + spilled, content_length - spilled);
    if (!s.is_ok()) return s;
  }
  return buf;
}

}  // namespace

Result<Request> read_request(Stream& stream, const ReadLimits& limits) {
  std::string buf;
  auto head = read_head(stream, buf, limits.max_header_bytes);
  if (!head.is_ok()) return head.status();

  Lines lines(std::string_view(buf.data(), head.value()));
  std::string_view request_line;
  if (!lines.next(request_line)) return invalid_argument_error("http: empty request");
  std::string_view rest = request_line;
  const std::string_view method = next_token(rest);
  const std::string_view path = next_token(rest);
  const std::string_view version = next_token(rest);
  if (version.empty()) {
    return invalid_argument_error("http: malformed request line: " + std::string(request_line));
  }
  HeadFields fields;
  const Status hs = parse_headers(lines, fields, limits.max_body_bytes);
  if (!hs.is_ok()) return hs;
  Request req;
  req.method.assign(method);
  req.path.assign(path);
  req.content_type.assign(fields.content_type);
  req.session.assign(fields.session);
  req.trace.assign(fields.trace);
  req.deadline_ms = header_value_int(fields.deadline);
  req.tier = header_value_int(fields.tier);
  req.keep_alive = !iequals(fields.connection, "close");

  auto body = read_body(stream, std::move(buf), head.value() + 4, fields.content_length);
  if (!body.is_ok()) return body.status();
  req.body = std::move(body).value();
  return req;
}

Status write_request(Stream& stream, const Request& req) {
  std::string out;
  out.reserve(256 + req.body.size());
  out += req.method;
  out += ' ';
  out += req.path;
  out += " HTTP/1.1\r\n";
  out += req.keep_alive ? "connection: keep-alive\r\n" : "connection: close\r\n";
  if (!req.content_type.empty()) append_header(out, "content-type", req.content_type);
  if (!req.session.empty()) append_header(out, "x-clarens-session", req.session);
  out += "host: localhost\r\n";
  if (!req.trace.empty()) append_header(out, "x-gae-trace", req.trace);
  if (req.deadline_ms >= 0) {
    out += "x-gae-deadline: ";
    append_int(out, req.deadline_ms);
    out += "\r\n";
  }
  if (req.tier >= 0) {
    out += "x-gae-tier: ";
    append_int(out, req.tier);
    out += "\r\n";
  }
  out += "content-length: ";
  append_int(out, static_cast<long long>(req.body.size()));
  out += "\r\n\r\n";
  out += req.body;
  return stream.write_all(out);
}

Result<Response> read_response(Stream& stream, const ReadLimits& limits) {
  std::string buf;
  auto head = read_head(stream, buf, limits.max_header_bytes);
  if (!head.is_ok()) return head.status();

  Lines lines(std::string_view(buf.data(), head.value()));
  std::string_view status_line;
  if (!lines.next(status_line)) return invalid_argument_error("http: empty response");
  // "<version> <code> <reason>", read as `istream >> version >> code` and
  // then the rest of the line: the code is a decimal int with an optional
  // sign, and when nothing at all follows it the reason stays "OK".
  std::string_view rest = status_line;
  const bool have_version = !next_token(rest).empty();
  while (!rest.empty() && is_space(rest.front())) rest.remove_prefix(1);
  Response resp;
  const bool plus = !rest.empty() && rest.front() == '+';
  const char* first = rest.data() + (plus ? 1 : 0);
  const char* last = rest.data() + rest.size();
  const auto code = std::from_chars(first, last, resp.status_code);
  if (!have_version || (plus && first < last && *first == '-') || code.ec != std::errc()) {
    return invalid_argument_error("http: malformed status line: " + std::string(status_line));
  }
  rest.remove_prefix(static_cast<std::size_t>(code.ptr - rest.data()));
  if (!rest.empty()) resp.reason.assign(trim(rest));

  HeadFields fields;
  const Status hs = parse_headers(lines, fields, limits.max_body_bytes);
  if (!hs.is_ok()) return hs;
  resp.content_type.assign(fields.content_type);

  auto body = read_body(stream, std::move(buf), head.value() + 4, fields.content_length);
  if (!body.is_ok()) return body.status();
  resp.body = std::move(body).value();
  return resp;
}

Status write_response(Stream& stream, const Response& resp, bool keep_alive) {
  std::string out;
  out.reserve(128 + resp.body.size());
  out += "HTTP/1.1 ";
  append_int(out, resp.status_code);
  out += ' ';
  out += resp.reason;
  out += "\r\n";
  if (!resp.content_type.empty()) append_header(out, "content-type", resp.content_type);
  out += keep_alive ? "connection: keep-alive\r\n" : "connection: close\r\n";
  out += "content-length: ";
  append_int(out, static_cast<long long>(resp.body.size()));
  out += "\r\n\r\n";
  out += resp.body;
  return stream.write_all(out);
}

}  // namespace gae::rpc::http
