// XML-RPC codec: the wire format the paper's Clarens services spoke.
// Implements the subset of XML needed by XML-RPC (no attributes carry
// meaning, no namespaces, entity escaping for the five XML entities).
#pragma once

#include <string>
#include <utility>

#include "common/status.h"
#include "rpc/value.h"

namespace gae::rpc::xmlrpc {

/// A decoded <methodCall>.
struct Call {
  std::string method;
  Array params;
};

/// A decoded <methodResponse>: either a value or a fault.
struct Response {
  bool is_fault = false;
  Value result;       // set when !is_fault
  int fault_code = 0; // set when is_fault
  std::string fault_string;
};

std::string encode_call(const std::string& method, const Array& params);
std::string encode_response(const Value& result);
std::string encode_fault(int code, const std::string& message);

Result<Call> decode_call(const std::string& xml);
Result<Response> decode_response(const std::string& xml);

/// Escapes &, <, >, ", ' for embedding in XML text.
std::string xml_escape(const std::string& s);

}  // namespace gae::rpc::xmlrpc
