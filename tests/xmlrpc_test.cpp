#include "rpc/xmlrpc.h"

#include <gtest/gtest.h>

#include <ostream>

namespace gae::rpc::xmlrpc {
namespace {

TEST(XmlRpcCall, RoundTripSimple) {
  Array params{Value(41), Value("hello"), Value(true)};
  const std::string xml = encode_call("job.status", params);
  auto call = decode_call(xml);
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().method, "job.status");
  ASSERT_EQ(call.value().params.size(), 3u);
  EXPECT_EQ(call.value().params[0].as_int(), 41);
  EXPECT_EQ(call.value().params[1].as_string(), "hello");
  EXPECT_TRUE(call.value().params[2].as_bool());
}

TEST(XmlRpcCall, RoundTripNested) {
  Struct inner;
  inner["pi"] = Value(3.14159);
  inner["nil"] = Value();
  Array params{Value(Array{Value(1), Value(Struct(inner))})};
  auto call = decode_call(encode_call("m", params));
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().params[0], params[0]);
}

TEST(XmlRpcCall, EscapingSurvivesRoundTrip) {
  Array params{Value("a<b&c>\"d'e"), Value(std::string("line1\nline2"))};
  auto call = decode_call(encode_call("m<&>", params));
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().method, "m<&>");
  EXPECT_EQ(call.value().params[0].as_string(), "a<b&c>\"d'e");
  EXPECT_EQ(call.value().params[1].as_string(), "line1\nline2");
}

TEST(XmlRpcCall, EmptyParams) {
  auto call = decode_call(encode_call("noargs", {}));
  ASSERT_TRUE(call.is_ok());
  EXPECT_TRUE(call.value().params.empty());
}

TEST(XmlRpcResponse, RoundTripValue) {
  Struct s;
  s["status"] = Value("RUNNING");
  s["progress"] = Value(0.5);
  auto resp = decode_response(encode_response(Value(s)));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_FALSE(resp.value().is_fault);
  EXPECT_EQ(resp.value().result.get_string("status", ""), "RUNNING");
  EXPECT_DOUBLE_EQ(resp.value().result.get_double("progress", 0), 0.5);
}

TEST(XmlRpcResponse, RoundTripFault) {
  auto resp = decode_response(encode_fault(101, "no such job"));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_TRUE(resp.value().is_fault);
  EXPECT_EQ(resp.value().fault_code, 101);
  EXPECT_EQ(resp.value().fault_string, "no such job");
}

TEST(XmlRpcDecode, AcceptsI4AndIntTags) {
  const char* xml =
      "<?xml version=\"1.0\"?><methodCall><methodName>m</methodName><params>"
      "<param><value><i4>7</i4></value></param>"
      "<param><value><int>-3</int></value></param>"
      "</params></methodCall>";
  auto call = decode_call(xml);
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().params[0].as_int(), 7);
  EXPECT_EQ(call.value().params[1].as_int(), -3);
}

TEST(XmlRpcDecode, UntypedValueIsString) {
  const char* xml =
      "<methodCall><methodName>m</methodName><params>"
      "<param><value>plain text</value></param></params></methodCall>";
  auto call = decode_call(xml);
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().params[0].as_string(), "plain text");
}

TEST(XmlRpcDecode, WhitespaceBetweenElementsTolerated) {
  const char* xml =
      "<?xml version=\"1.0\"?>\n<methodCall>\n  <methodName>m</methodName>\n"
      "  <params>\n    <param>\n      <value><i8>1</i8></value>\n    </param>\n"
      "  </params>\n</methodCall>\n";
  auto call = decode_call(xml);
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().params[0].as_int(), 1);
}

TEST(XmlRpcDecode, CommentsSkipped) {
  const char* xml =
      "<!-- prolog comment --><methodCall><methodName>m</methodName>"
      "<params><!-- inner --><param><value><boolean>1</boolean></value></param>"
      "</params></methodCall>";
  auto call = decode_call(xml);
  ASSERT_TRUE(call.is_ok());
  EXPECT_TRUE(call.value().params[0].as_bool());
}

TEST(XmlRpcDecode, NumericCharacterReferences) {
  const char* xml =
      "<methodCall><methodName>m</methodName><params><param>"
      "<value><string>A&#66;&#x43;</string></value></param></params></methodCall>";
  auto call = decode_call(xml);
  ASSERT_TRUE(call.is_ok());
  EXPECT_EQ(call.value().params[0].as_string(), "ABC");
}

TEST(XmlRpcDecode, MalformedInputsRejected) {
  EXPECT_FALSE(decode_call("").is_ok());
  EXPECT_FALSE(decode_call("not xml at all").is_ok());
  EXPECT_FALSE(decode_call("<methodCall><methodName>m</methodName>").is_ok());
  EXPECT_FALSE(decode_call("<wrongRoot/>").is_ok());
  EXPECT_FALSE(decode_call("<methodCall><methodName>m</methodName>"
                           "<params><param><value><int>zz</int></value></param>"
                           "</params></methodCall>")
                   .is_ok());
  EXPECT_FALSE(decode_call("<methodCall><foo></bar></methodCall>").is_ok());
  EXPECT_FALSE(decode_response("<methodResponse></methodResponse>").is_ok());
}

TEST(XmlRpcDecode, MissingMethodName) {
  EXPECT_FALSE(decode_call("<methodCall><params></params></methodCall>").is_ok());
}

TEST(XmlRpcDecode, BadBooleanRejected) {
  EXPECT_FALSE(decode_call("<methodCall><methodName>m</methodName><params>"
                           "<param><value><boolean>2</boolean></value></param>"
                           "</params></methodCall>")
                   .is_ok());
}

TEST(XmlEscape, AllEntities) {
  EXPECT_EQ(xml_escape("<>&\"'"), "&lt;&gt;&amp;&quot;&apos;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

void ExpectRoundTrip(const Value& v) {
  auto resp = decode_response(encode_response(v));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp.value().result, v);
}

/// Round-trip property across assorted value shapes. gtest names each case
/// after the raw bytes of its parameter, so only shapes whose bytes are the
/// same on every run belong here.
class XmlRpcRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(XmlRpcRoundTripTest, ValueSurvives) { ExpectRoundTrip(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, XmlRpcRoundTripTest,
    ::testing::Values(Value(std::int64_t{-9'000'000'000}), Value(0.0), Value(1e-12),
                      Value(Array{})));

/// Shapes whose bytes hold heap pointers or unset variant padding carry a
/// fixed label, so their test names do not change from run to run.
struct LabelledValue {
  const char* label;
  Value value;
};

void PrintTo(const LabelledValue& v, std::ostream* os) { *os << v.label; }

class XmlRpcLabelledRoundTripTest : public ::testing::TestWithParam<LabelledValue> {};

TEST_P(XmlRpcLabelledRoundTripTest, ValueSurvives) { ExpectRoundTrip(GetParam().value); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, XmlRpcLabelledRoundTripTest,
    ::testing::Values(
        LabelledValue{"nil", Value()}, LabelledValue{"false", Value(false)},
        LabelledValue{"empty_string", Value("")},
        LabelledValue{"padded_string", Value("  padded  ")},
        LabelledValue{"empty_struct", Value(Struct{})},
        LabelledValue{"nested_array", Value(Array{Value(Array{Value(Array{Value(1)})})})},
        LabelledValue{"nested_struct",
                      Value(Struct{{"k", Value(Struct{{"k2", Value("v")}})}})}));

}  // namespace
}  // namespace gae::rpc::xmlrpc
