// Randomised property tests over the RPC codecs: arbitrary value trees must
// survive XML-RPC and JSON-RPC round trips bit-exactly, and random garbage
// must be rejected without crashing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "rpc/jsonrpc.h"
#include "rpc/xmlrpc.h"

namespace gae::rpc {
namespace {

/// Builds a random value tree; depth bounds recursion.
Value random_value(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth > 0 ? 6 : 4));
  switch (kind) {
    case 0: return Value();
    case 1: return Value(rng.bernoulli(0.5));
    case 2: return Value(rng.uniform_int(-1'000'000'000, 1'000'000'000));
    case 3: {
      // Round-trippable double (finite, not denormal-weird).
      return Value(rng.uniform(-1e6, 1e6));
    }
    case 4: {
      std::string s;
      const auto len = rng.uniform_int(0, 20);
      for (int i = 0; i < len; ++i) {
        // Mix printable chars with XML/JSON specials and newlines.
        static const char chars[] =
            "abcXYZ012 <>&\"'\\/\n\t{}[],:;!@#$%^()";
        s.push_back(chars[rng.uniform_int(0, sizeof(chars) - 2)]);
      }
      return Value(std::move(s));
    }
    case 5: {
      Array arr;
      const auto n = rng.uniform_int(0, 4);
      for (int i = 0; i < n; ++i) arr.push_back(random_value(rng, depth - 1));
      return Value(std::move(arr));
    }
    default: {
      Struct st;
      const auto n = rng.uniform_int(0, 4);
      for (int i = 0; i < n; ++i) {
        st["key" + std::to_string(rng.uniform_int(0, 99))] = random_value(rng, depth - 1);
      }
      return Value(std::move(st));
    }
  }
}

class CodecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzzTest, XmlRpcRoundTripsRandomTrees) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value v = random_value(rng, 3);
    auto resp = xmlrpc::decode_response(xmlrpc::encode_response(v));
    ASSERT_TRUE(resp.is_ok()) << resp.status() << " for " << v.debug_string();
    EXPECT_EQ(resp.value().result, v) << v.debug_string();
  }
}

TEST_P(CodecFuzzTest, JsonRoundTripsRandomTrees) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    const Value v = random_value(rng, 3);
    auto back = json::decode(json::encode(v));
    ASSERT_TRUE(back.is_ok()) << back.status() << " for " << v.debug_string();
    EXPECT_EQ(back.value(), v) << v.debug_string();
  }
}

TEST_P(CodecFuzzTest, RandomCallsRoundTrip) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 25; ++i) {
    Array params;
    const auto n = rng.uniform_int(0, 5);
    for (int p = 0; p < n; ++p) params.push_back(random_value(rng, 2));
    const std::string method = "svc.method" + std::to_string(rng.uniform_int(0, 9));

    auto xml_call = xmlrpc::decode_call(xmlrpc::encode_call(method, params));
    ASSERT_TRUE(xml_call.is_ok());
    EXPECT_EQ(xml_call.value().method, method);
    EXPECT_EQ(Value(xml_call.value().params), Value(params));

    auto json_call = jsonrpc::decode_call(jsonrpc::encode_call(method, params, i));
    ASSERT_TRUE(json_call.is_ok());
    EXPECT_EQ(json_call.value().method, method);
    EXPECT_EQ(Value(json_call.value().params), Value(params));
  }
}

TEST_P(CodecFuzzTest, RandomGarbageNeverCrashesDecoders) {
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 200; ++i) {
    std::string garbage;
    const auto len = rng.uniform_int(0, 200);
    for (int c = 0; c < len; ++c) {
      garbage.push_back(static_cast<char>(rng.uniform_int(1, 127)));
    }
    // Any result is fine as long as nothing throws or crashes.
    (void)xmlrpc::decode_call(garbage);
    (void)xmlrpc::decode_response(garbage);
    (void)json::decode(garbage);
    (void)jsonrpc::decode_call(garbage);
    (void)jsonrpc::decode_response(garbage);
  }
}

TEST_P(CodecFuzzTest, MutatedValidDocumentsNeverCrash) {
  Rng rng(GetParam() + 4000);
  const std::string valid = xmlrpc::encode_call(
      "steering.move", {Value("task-1"), Value(Struct{{"site", Value("b")}})});
  for (int i = 0; i < 200; ++i) {
    std::string mutated = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(1, 127));
    (void)xmlrpc::decode_call(mutated);
  }
}

TEST_P(CodecFuzzTest, WrongTypedMembersAreRejectedNotThrown) {
  // Envelope members of random type: a decoder must answer, with a value or
  // INVALID_ARGUMENT, and never throw out of Value's checked accessors.
  Rng rng(GetParam() + 5000);
  const auto expect_clean = [](const auto& decoded, const std::string& text) {
    if (!decoded.is_ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << text;
    }
  };
  for (int i = 0; i < 100; ++i) {
    Struct error{{"code", Value(104)}, {"message", Value("denied")}};
    Struct msg{{"jsonrpc", Value("2.0")}, {"method", Value("m")}, {"params", Value(Array{})},
               {"id", Value(1)}, {"result", Value(1)}};
    Struct fault{{"faultCode", Value(104)}, {"faultString", Value("denied")}};
    const Value odd = random_value(rng, 1);
    switch (rng.uniform_int(0, 5)) {
      case 0: msg["method"] = odd; break;
      case 1: msg["id"] = odd; break;
      case 2: error["code"] = odd; fault["faultCode"] = odd; break;
      case 3: error["message"] = odd; fault["faultString"] = odd; break;
      default: break;
    }
    msg["error"] = rng.bernoulli(0.5) ? odd : Value(error);
    const Value fault_value = rng.bernoulli(0.3) ? odd : Value(fault);

    const std::string text = json::encode(Value(msg));
    ASSERT_NO_THROW(expect_clean(jsonrpc::decode_call(text), text));
    ASSERT_NO_THROW(expect_clean(jsonrpc::decode_response(text), text));

    std::string xml = xmlrpc::encode_response(fault_value);
    xml.replace(xml.find("<params><param>"), 15, "<fault>");
    xml.replace(xml.find("</param></params>"), 17, "</fault>");
    ASSERT_NO_THROW(expect_clean(xmlrpc::decode_response(xml), xml));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace gae::rpc
