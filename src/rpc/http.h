// Minimal HTTP/1.1 framing: enough for POST-based RPC with keep-alive and
// Content-Length bodies. Not a general web server.
//
// Each message is one buffer: the reader pulls the head in read_some chunks
// of at most 4096 bytes, then the rest of the body with one read_exact, into
// one string that becomes the body; the writer sends the whole message with
// one write_all. The simulated network (dst::SimNetwork) draws its faults
// per write and schedules per read, so this pattern is part of every DST
// schedule.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "rpc/transport.h"

namespace gae::rpc::http {

/// Header fields by lower-cased name. The comparator is transparent, so a
/// lookup by a lower-case literal (`headers.find("content-type")`) builds no
/// key string.
using Headers = std::map<std::string, std::string, std::less<>>;

struct Request {
  std::string method = "POST";
  std::string path = "/";
  Headers headers;
  std::string body;
  /// The x-gae-trace header, carried outside the generic map: it is on the
  /// hot path of every traced RPC, and the map costs a node allocation plus
  /// several string temporaries per message. Set this instead of
  /// headers["x-gae-trace"]; readers find wire values here, never in the map.
  std::string trace;
  /// The x-gae-deadline header (remaining whole-call budget in milliseconds
  /// at send time), same dedicated-slot design as `trace`. -1 = absent.
  int deadline_ms = -1;
  /// The x-gae-tier header (request criticality, 0 = most critical). Same
  /// dedicated-slot design. -1 = absent.
  int tier = -1;

  /// The value of header `key` (any case), or `fallback`.
  std::string header(const std::string& key, const std::string& fallback = "") const;
  /// False only for "Connection: close" (any case).
  bool keep_alive() const;
};

struct Response {
  int status_code = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  std::string header(const std::string& key, const std::string& fallback = "") const;
};

/// Size caps applied while reading a message off the wire; a peer exceeding
/// them gets INVALID_ARGUMENT instead of unbounded buffering.
struct ReadLimits {
  std::size_t max_header_bytes = 1u << 20;
  std::size_t max_body_bytes = 64u << 20;
};

/// Reads one request from the stream. UNAVAILABLE on clean EOF before any
/// bytes (peer closed a kept-alive connection), INVALID_ARGUMENT on garbage,
/// DEADLINE_EXCEEDED when the stream's receive timeout expires.
Result<Request> read_request(Stream& stream, const ReadLimits& limits = {});

Status write_request(Stream& stream, const Request& req);

Result<Response> read_response(Stream& stream, const ReadLimits& limits = {});

Status write_response(Stream& stream, const Response& resp, bool keep_alive);

}  // namespace gae::rpc::http
