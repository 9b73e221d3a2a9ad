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

#include <string>

#include "common/status.h"
#include "rpc/transport.h"

namespace gae::rpc::http {

// The fabric speaks eight header names: content-type, content-length,
// connection, host, x-clarens-session, x-gae-trace, x-gae-deadline and
// x-gae-tier. Each has one typed field below, except content-length, which
// the writers derive from the body, and host, which they always send as
// "localhost" and the readers ignore. Readers match names in any case and
// skip every other well-formed header line.

struct Request {
  std::string method = "POST";
  std::string path = "/";
  std::string body;
  /// content-type ("" = absent).
  std::string content_type;
  /// x-clarens-session: the caller's session token ("" = none).
  std::string session;
  /// x-gae-trace: the caller's trace context ("" = none).
  std::string trace;
  /// x-gae-deadline: remaining whole-call budget in milliseconds at send
  /// time. -1 = absent.
  int deadline_ms = -1;
  /// x-gae-tier: request criticality, 0 = most critical. -1 = absent.
  int tier = -1;
  /// connection: false only for "Connection: close" (any case).
  bool keep_alive = true;
};

struct Response {
  int status_code = 200;
  std::string reason = "OK";
  std::string body;
  /// content-type ("" = absent).
  std::string content_type;
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
