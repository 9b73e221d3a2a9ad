#include "rpc/jsonrpc.h"

#include <gtest/gtest.h>

#include <string>

namespace gae::rpc {
namespace {

TEST(Json, EncodePrimitives) {
  EXPECT_EQ(json::encode(Value()), "null");
  EXPECT_EQ(json::encode(Value(true)), "true");
  EXPECT_EQ(json::encode(Value(false)), "false");
  EXPECT_EQ(json::encode(Value(42)), "42");
  EXPECT_EQ(json::encode(Value(-1.5)), "-1.5");
  EXPECT_EQ(json::encode(Value("hi")), "\"hi\"");
}

TEST(Json, DoubleKeepsDoubleness) {
  // 2.0 must not come back as int 2 after a round trip.
  const std::string text = json::encode(Value(2.0));
  auto v = json::decode(text);
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v.value().is_double());
}

TEST(Json, EncodeEscapes) {
  EXPECT_EQ(json::encode(Value("a\"b\\c\nd\te")), R"("a\"b\\c\nd\te")");
  EXPECT_EQ(json::encode(Value(std::string("\x01"))), "\"\\u0001\"");
}

TEST(Json, DecodePrimitives) {
  EXPECT_TRUE(json::decode("null").value().is_nil());
  EXPECT_EQ(json::decode("17").value().as_int(), 17);
  EXPECT_DOUBLE_EQ(json::decode("2.5e2").value().as_double(), 250.0);
  EXPECT_EQ(json::decode("\"x\"").value().as_string(), "x");
  EXPECT_TRUE(json::decode("true").value().as_bool());
}

TEST(Json, DecodeNested) {
  auto v = json::decode(R"({"a":[1,2,{"b":null}],"c":"d"})");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().at("a").as_array()[1].as_int(), 2);
  EXPECT_TRUE(v.value().at("a").as_array()[2].at("b").is_nil());
  EXPECT_EQ(v.value().get_string("c", ""), "d");
}

TEST(Json, DecodeUnicodeEscapes) {
  auto v = json::decode(R"("Aé")");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().as_string(), "A\xC3\xA9");  // 'A' + e-acute in UTF-8
  EXPECT_EQ(json::decode(R"("\u0041")").value().as_string(), "A");
  EXPECT_EQ(json::decode(R"("\u00e9")").value().as_string(), "\xC3\xA9");
  EXPECT_EQ(json::decode(R"("\u20AC")").value().as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, MalformedUnicodeEscapesRejected) {
  // Regression: the hex quad used to go through stoul, which accepts a
  // partial parse — "\u12g3" decoded as 0x12 and "\u 041" as whitespace-
  // prefixed garbage. Every escape must be exactly four hex digits.
  EXPECT_FALSE(json::decode(R"("\u12g3")").is_ok());
  EXPECT_FALSE(json::decode(R"("\uzzzz")").is_ok());
  EXPECT_FALSE(json::decode(R"("\u 041")").is_ok());
  EXPECT_FALSE(json::decode(R"("\u+041")").is_ok());
  EXPECT_FALSE(json::decode(R"("\u12")").is_ok());   // truncated quad
  EXPECT_FALSE(json::decode(R"("\u")").is_ok());     // nothing at all
  EXPECT_FALSE(json::decode("\"\\u00\"").is_ok());   // closing quote inside quad
}

TEST(Json, WhitespaceTolerated) {
  auto v = json::decode(" { \"a\" : [ 1 , 2 ] } ");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().at("a").as_array().size(), 2u);
}

TEST(Json, MalformedRejected) {
  EXPECT_FALSE(json::decode("").is_ok());
  EXPECT_FALSE(json::decode("{").is_ok());
  EXPECT_FALSE(json::decode("[1,]").is_ok());
  EXPECT_FALSE(json::decode("{\"a\":}").is_ok());
  EXPECT_FALSE(json::decode("\"unterminated").is_ok());
  EXPECT_FALSE(json::decode("tru").is_ok());
  EXPECT_FALSE(json::decode("1 2").is_ok());  // trailing garbage
  EXPECT_FALSE(json::decode("{'single':1}").is_ok());
}

TEST(Json, RoundTripDeep) {
  Struct s;
  s["list"] = Value(Array{Value(1), Value(2.5), Value("x"), Value(), Value(true)});
  s["nested"] = Value(Struct{{"inner", Value(Array{Value(Struct{})})}});
  const Value original{std::move(s)};
  auto back = json::decode(json::encode(original));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), original);
}

TEST(JsonRpc, CallRoundTrip) {
  const std::string text = jsonrpc::encode_call("est.runtime", {Value("t1"), Value(4)}, 9);
  auto call = jsonrpc::decode_call(text);
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().method, "est.runtime");
  EXPECT_EQ(call.value().id, 9);
  ASSERT_EQ(call.value().params.size(), 2u);
  EXPECT_EQ(call.value().params[0].as_string(), "t1");
}

TEST(JsonRpc, ResponseRoundTrip) {
  auto resp = jsonrpc::decode_response(jsonrpc::encode_response(Value(123), 5));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_FALSE(resp.value().is_fault);
  EXPECT_EQ(resp.value().result.as_int(), 123);
  EXPECT_EQ(resp.value().id, 5);
}

TEST(JsonRpc, FaultRoundTrip) {
  auto resp = jsonrpc::decode_response(jsonrpc::encode_fault(104, "denied", 2));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp.value().is_fault);
  EXPECT_EQ(resp.value().fault_code, 104);
  EXPECT_EQ(resp.value().fault_string, "denied");
}

TEST(JsonRpc, CallValidation) {
  EXPECT_FALSE(jsonrpc::decode_call("[1,2]").is_ok());          // not an object
  EXPECT_FALSE(jsonrpc::decode_call("{\"id\":1}").is_ok());     // no method
  EXPECT_FALSE(jsonrpc::decode_call(
                   R"({"method":"m","params":{"a":1}})").is_ok());  // params not array
  EXPECT_TRUE(jsonrpc::decode_call(R"({"method":"m"})").is_ok());   // params optional
}

TEST(JsonRpc, ResponseValidation) {
  EXPECT_FALSE(jsonrpc::decode_response("{}").is_ok());  // neither result nor error
  auto with_null_error =
      jsonrpc::decode_response(R"({"jsonrpc":"2.0","result":1,"error":null,"id":1})");
  ASSERT_TRUE(with_null_error.is_ok());
  EXPECT_FALSE(with_null_error.value().is_fault);
}

TEST(JsonRpc, WrongTypedMembersAreInvalidArgument) {
  // Each of these used to throw out of the decoder (Value's checked
  // accessors), ending a server on a bad request and a client on a bad reply.
  const char* calls[] = {
      R"({"jsonrpc":"2.0","method":"m","params":[],"id":"abc"})",  // string id
      R"({"jsonrpc":"2.0","method":"m","params":[],"id":1.5})",
      R"({"jsonrpc":"2.0","method":"m","params":[],"id":null})",
      R"({"jsonrpc":"2.0","method":5,"params":[],"id":1})",
      R"({"jsonrpc":"2.0","method":["m"],"id":1})",
  };
  for (const char* text : calls) {
    auto call = jsonrpc::decode_call(text);
    ASSERT_FALSE(call.is_ok()) << text;
    EXPECT_EQ(call.status().code(), StatusCode::kInvalidArgument) << text;
  }
  const char* responses[] = {
      R"({"jsonrpc":"2.0","result":1,"id":"abc"})",
      R"({"jsonrpc":"2.0","error":"boom","id":1})",
      R"({"jsonrpc":"2.0","error":[1],"id":1})",
      R"({"jsonrpc":"2.0","error":{"code":"104","message":"x"},"id":1})",
      R"({"jsonrpc":"2.0","error":{"code":104,"message":7},"id":1})",
  };
  for (const char* text : responses) {
    auto resp = jsonrpc::decode_response(text);
    ASSERT_FALSE(resp.is_ok()) << text;
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // Members that are absent still fall back as before.
  auto bare = jsonrpc::decode_response(R"({"error":{}})");
  ASSERT_TRUE(bare.is_ok());
  EXPECT_TRUE(bare.value().is_fault);
  EXPECT_EQ(bare.value().fault_code, 0);
  EXPECT_EQ(bare.value().id, 0);
}

TEST(Json, NestingPastTheCapIsInvalidArgument) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(json::decode(nested(kMaxDecodeDepth)).is_ok());
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += R"({"a":)";
  const std::string deep[] = {
      nested(kMaxDecodeDepth + 1),
      nested(100'000),
      std::string(2'000'000, '['),  // unterminated: used to overflow the stack
      objects,
  };
  for (const auto& text : deep) {
    auto v = json::decode(text);
    ASSERT_FALSE(v.is_ok());
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
  }
  auto call = jsonrpc::decode_call(R"({"method":"m","params":)" + nested(100'000) + "}");
  EXPECT_FALSE(call.is_ok());
}

}  // namespace
}  // namespace gae::rpc
