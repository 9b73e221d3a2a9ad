// Host conformance: one set of assertions over both request hosts —
// rpc::RpcServer on live TCP and dst::SimHost on the simulated network. Both
// drive rpc::RequestEngine, so a request must be read, admitted, dispatched
// and answered the same way whichever host accepted its connection.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/admission.h"
#include "common/clock.h"
#include "dst/sim_host.h"
#include "dst/simnet.h"
#include "rpc/http.h"
#include "rpc/jsonrpc.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "rpc/xmlrpc.h"

namespace gae {
namespace {

constexpr int kClientTimeoutMs = 5'000;

class TcpHostEnv {
 public:
  void start(std::shared_ptr<rpc::Dispatcher> dispatcher, rpc::ConnectionOptions options) {
    rpc::ServerOptions server_options{0, 2};
    server_options.connection = options;
    server_ = std::make_unique<rpc::RpcServer>(std::move(dispatcher), server_options);
    auto port = server_->start();
    ASSERT_TRUE(port.is_ok()) << port.status().message();
    port_ = port.value();
  }

  Result<std::unique_ptr<rpc::Stream>> connect() {
    return rpc::tcp_transport().connect("127.0.0.1", port_);
  }

 private:
  std::unique_ptr<rpc::RpcServer> server_;
  std::uint16_t port_ = 0;
};

class SimHostEnv {
 public:
  SimHostEnv() : net_(/*seed=*/11) {}

  void start(std::shared_ptr<rpc::Dispatcher> dispatcher, rpc::ConnectionOptions options) {
    host_ = std::make_unique<dst::SimHost>(net_, "server", std::move(dispatcher), 0, options);
    ASSERT_TRUE(host_->start().is_ok());
  }

  Result<std::unique_ptr<rpc::Stream>> connect() {
    return net_.transport_for("client").connect("server", host_->port());
  }

 private:
  dst::SimNetwork net_;
  std::unique_ptr<dst::SimHost> host_;
};

/// One answer off the wire, whichever codec carried it.
struct Reply {
  int status_code = 0;
  std::string content_type;
  bool is_fault = false;
  int fault_code = 0;
  rpc::Value result;
};

template <typename Env>
class HostConformance : public ::testing::Test {
 protected:
  HostConformance() : admission_(clock_, single_slot()) {
    dispatcher_->register_method(
        "echo", [](const rpc::Array& params, const rpc::CallContext&) -> Result<rpc::Value> {
          return params.empty() ? rpc::Value() : params.front();
        });
    dispatcher_->register_method(
        "fail", [](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
          return failed_precondition_error("job is not steerable");
        });
    rpc::ConnectionOptions options;
    options.admission = &admission_;
    env_.start(dispatcher_, options);
  }

  /// A one-slot limiter: pinning the slot makes every request a shed.
  static AdmissionOptions single_slot() {
    AdmissionOptions options;
    options.min_limit = options.initial_limit = options.max_limit = 1;
    return options;
  }

  std::unique_ptr<rpc::Stream> connect() {
    auto conn = env_.connect();
    EXPECT_TRUE(conn.is_ok()) << conn.status().message();
    if (!conn.is_ok()) return nullptr;
    EXPECT_TRUE(conn.value()->set_recv_timeout_ms(kClientTimeoutMs).is_ok());
    return std::move(conn).value();
  }

  /// Sends one call and reads its answer off the same connection.
  static Reply call(rpc::Stream& stream, bool json, const std::string& method,
                    const rpc::Array& params) {
    return send(stream, json,
                json ? rpc::jsonrpc::encode_call(method, params, 1)
                     : rpc::xmlrpc::encode_call(method, params));
  }

  /// Sends `body` as one request and reads its answer.
  static Reply send(rpc::Stream& stream, bool json, std::string body) {
    rpc::http::Request req;
    req.content_type = json ? "application/json" : "text/xml";
    req.body = std::move(body);
    Reply reply;
    EXPECT_TRUE(rpc::http::write_request(stream, req).is_ok());
    auto resp = rpc::http::read_response(stream);
    EXPECT_TRUE(resp.is_ok()) << resp.status().message();
    if (!resp.is_ok()) return reply;
    reply.status_code = resp.value().status_code;
    reply.content_type = resp.value().content_type;
    if (json) {
      auto decoded = rpc::jsonrpc::decode_response(resp.value().body);
      EXPECT_TRUE(decoded.is_ok()) << decoded.status().message();
      if (!decoded.is_ok()) return reply;
      reply.is_fault = decoded.value().is_fault;
      reply.fault_code = decoded.value().fault_code;
      reply.result = decoded.value().result;
    } else {
      auto decoded = rpc::xmlrpc::decode_response(resp.value().body);
      EXPECT_TRUE(decoded.is_ok()) << decoded.status().message();
      if (!decoded.is_ok()) return reply;
      reply.is_fault = decoded.value().is_fault;
      reply.fault_code = decoded.value().fault_code;
      reply.result = decoded.value().result;
    }
    return reply;
  }

  /// Sends `body`, expects an INVALID_ARGUMENT fault, then checks that the
  /// same connection still serves a call.
  static void expect_fault_then_served(rpc::Stream& conn, bool json, std::string body) {
    const Reply bad = send(conn, json, std::move(body));
    EXPECT_EQ(bad.status_code, 200);
    EXPECT_TRUE(bad.is_fault);
    EXPECT_EQ(rpc::fault_code_to_status(bad.fault_code), StatusCode::kInvalidArgument);
    const Reply served = call(conn, json, "echo", {rpc::Value("after")});
    EXPECT_EQ(served.status_code, 200);
    ASSERT_FALSE(served.is_fault);
    EXPECT_EQ(served.result.as_string(), "after");
  }

  ManualClock clock_;
  AdmissionController admission_;
  std::shared_ptr<rpc::Dispatcher> dispatcher_ = std::make_shared<rpc::Dispatcher>();
  Env env_;  // last: the host stops before what it serves goes away
};

using HostEnvs = ::testing::Types<TcpHostEnv, SimHostEnv>;
TYPED_TEST_SUITE(HostConformance, HostEnvs);

TYPED_TEST(HostConformance, MalformedRequestGets400ThenClose) {
  auto conn = this->connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->write_all("POST / HTTP/1.1\r\ncontent-length: 12abc\r\n\r\n").is_ok());
  auto resp = rpc::http::read_response(*conn);
  ASSERT_TRUE(resp.is_ok()) << resp.status().message();
  EXPECT_EQ(resp.value().status_code, 400);
  char buf[16];
  auto n = conn->read_some(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok()) << n.status().message();
  EXPECT_EQ(n.value(), 0u) << "the host must close after a framing error";
}

TYPED_TEST(HostConformance, AdmissionShedIs503FaultInRequestProtocol) {
  auto conn = this->connect();
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(this->admission_.try_admit(Criticality::kControl));  // pin the only slot
  const int exhausted = rpc::status_to_fault_code(StatusCode::kResourceExhausted);
  for (const bool json : {true, false}) {
    const Reply shed = TestFixture::call(*conn, json, "echo", {rpc::Value("x")});
    EXPECT_EQ(shed.status_code, 503);
    EXPECT_EQ(shed.content_type, json ? "application/json" : "text/xml");
    EXPECT_TRUE(shed.is_fault);
    EXPECT_EQ(shed.fault_code, exhausted);
  }
  // A ticket shed keeps the connection: once the slot frees, it serves.
  this->admission_.release();
  const Reply served = TestFixture::call(*conn, true, "echo", {rpc::Value("x")});
  EXPECT_EQ(served.status_code, 200);
  EXPECT_FALSE(served.is_fault);
}

TYPED_TEST(HostConformance, TwoRequestsOnOneKeptAliveConnection) {
  auto conn = this->connect();
  ASSERT_NE(conn, nullptr);
  for (const std::string word : {"first", "second"}) {
    const Reply reply = TestFixture::call(*conn, word == "first", "echo", {rpc::Value(word)});
    EXPECT_EQ(reply.status_code, 200);
    ASSERT_FALSE(reply.is_fault);
    EXPECT_EQ(reply.result.as_string(), word);
  }
}

TYPED_TEST(HostConformance, HandlerErrorArrivesAsFault) {
  auto conn = this->connect();
  ASSERT_NE(conn, nullptr);
  for (const bool json : {true, false}) {
    const Reply reply = TestFixture::call(*conn, json, "fail", {});
    EXPECT_EQ(reply.status_code, 200);
    EXPECT_TRUE(reply.is_fault);
    EXPECT_EQ(rpc::fault_code_to_status(reply.fault_code), StatusCode::kFailedPrecondition);
  }
}

TYPED_TEST(HostConformance, WrongTypedJsonRequestGetsFault) {
  // The JSON decoder used to throw on these outside any handler's try, which
  // ended the whole server process.
  auto conn = this->connect();
  ASSERT_NE(conn, nullptr);
  TestFixture::expect_fault_then_served(*conn, true,
                                        R"({"jsonrpc":"2.0","method":"echo","id":"abc"})");
  TestFixture::expect_fault_then_served(*conn, true,
                                        R"({"jsonrpc":"2.0","method":5,"id":1})");
}

TYPED_TEST(HostConformance, DeeplyNestedBodyGetsFault) {
  // 100 k levels used to overflow the decoder's stack, in either codec.
  constexpr int kDepth = 100'000;
  auto conn = this->connect();
  ASSERT_NE(conn, nullptr);
  std::string xml = "<methodCall><methodName>echo</methodName><params><param>";
  for (int i = 0; i < kDepth; ++i) xml += "<value><array><data>";
  for (int i = 0; i < kDepth; ++i) xml += "</data></array></value>";
  xml += "</param></params></methodCall>";
  TestFixture::expect_fault_then_served(*conn, false, std::move(xml));
  TestFixture::expect_fault_then_served(
      *conn, true,
      R"({"jsonrpc":"2.0","method":"echo","id":1,"params":)" +
          std::string(kDepth, '[') + std::string(kDepth, ']') + "}");
}

}  // namespace
}  // namespace gae
