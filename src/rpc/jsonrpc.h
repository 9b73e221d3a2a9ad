// JSON codec + JSON-RPC 2.0 framing, the second content type the service
// host speaks (the paper's Clarens exposed both SOAP/XML-RPC and JSON-ish
// clients; we pair XML-RPC with JSON-RPC).
#pragma once

#include <string>

#include "common/status.h"
#include "rpc/value.h"

namespace gae::rpc::json {

/// Serialises a Value as JSON text (ints as integers, nil as null).
std::string encode(const Value& v);

/// Parses JSON text into a Value. All JSON numbers with a '.', 'e' or 'E'
/// become doubles; others become 64-bit ints.
Result<Value> decode(const std::string& text);

}  // namespace gae::rpc::json

namespace gae::rpc::jsonrpc {

struct Call {
  std::string method;
  Array params;
  std::int64_t id = 0;
};

struct Response {
  bool is_fault = false;
  Value result;
  int fault_code = 0;
  std::string fault_string;
  std::int64_t id = 0;
};

std::string encode_call(const std::string& method, const Array& params, std::int64_t id);
std::string encode_response(const Value& result, std::int64_t id);
std::string encode_fault(int code, const std::string& message, std::int64_t id);

Result<Call> decode_call(const std::string& text);
Result<Response> decode_response(const std::string& text);

}  // namespace gae::rpc::jsonrpc
