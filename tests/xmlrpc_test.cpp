#include "rpc/xmlrpc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

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

/// Round-trip property across assorted value shapes. Each case carries a
/// fixed label: gtest would otherwise name it after the raw bytes of its
/// Value, padding and heap pointers included, which change from run to run.
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
        LabelledValue{"int64", Value(std::int64_t{-9'000'000'000})},
        LabelledValue{"zero_double", Value(0.0)}, LabelledValue{"tiny_double", Value(1e-12)},
        LabelledValue{"empty_array", Value(Array{})},
        LabelledValue{"nil", Value()}, LabelledValue{"false", Value(false)},
        LabelledValue{"empty_string", Value("")},
        LabelledValue{"padded_string", Value("  padded  ")},
        LabelledValue{"empty_struct", Value(Struct{})},
        LabelledValue{"nested_array", Value(Array{Value(Array{Value(Array{Value(1)})})})},
        LabelledValue{"nested_struct",
                      Value(Struct{{"k", Value(Struct{{"k2", Value("v")}})}})},
        // Subnormals: strtod flags them ERANGE, yet they are in range.
        LabelledValue{"denorm_min", Value(std::numeric_limits<double>::denorm_min())},
        LabelledValue{"subnormal",
                      Value(std::numeric_limits<double>::denorm_min() * 12345)}));

TEST(XmlRpcDecode, WrongTypedFaultMembersAreInvalidArgument) {
  // decode_response used to throw on these (Value's checked accessors), and
  // RpcClient::call let the exception escape.
  const auto fault = [](const std::string& value) {
    return "<methodResponse><fault><value>" + value + "</value></fault></methodResponse>";
  };
  const std::string bad[] = {
      fault("<string>not a struct</string>"),
      fault("<array><data/></array>"),
      fault("<struct><member><name>faultCode</name><value>104</value></member></struct>"),
      fault("<struct><member><name>faultCode</name><value><double>1</double></value>"
            "</member></struct>"),
      fault("<struct><member><name>faultString</name><value><i4>7</i4></value></member>"
            "</struct>"),
  };
  for (const auto& doc : bad) {
    auto resp = decode_response(doc);
    ASSERT_FALSE(resp.is_ok()) << doc;
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument) << doc;
  }
}

/// `depth` nested arrays around one int, as one call parameter.
std::string nested_arrays(int depth) {
  std::string doc = "<methodCall><methodName>m</methodName><params><param>";
  for (int i = 0; i < depth; ++i) doc += "<value><array><data>";
  doc += "<value><i4>1</i4></value>";
  for (int i = 0; i < depth; ++i) doc += "</data></array></value>";
  return doc + "</param></params></methodCall>";
}

TEST(XmlRpcDecode, NestingPastTheCapIsInvalidArgument) {
  // Three elements per array level plus methodCall/params/param/value/i4.
  constexpr int kLevelsThatFit = (kMaxDecodeDepth - 5) / 3;
  auto fits = decode_call(nested_arrays(kLevelsThatFit));
  ASSERT_TRUE(fits.is_ok()) << fits.status();
  auto over = decode_call(nested_arrays(kLevelsThatFit + 1));
  ASSERT_FALSE(over.is_ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);

  // 100 k levels (a 4 MB body) used to overflow the stack.
  auto deep = decode_call(nested_arrays(100'000));
  ASSERT_FALSE(deep.is_ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);

  // The cap also holds inside elements the decoder skips.
  std::string skipped = "<methodCall><methodName>m</methodName><junk>";
  for (int i = 0; i < 100'000; ++i) skipped += "<a>";
  for (int i = 0; i < 100'000; ++i) skipped += "</a>";
  skipped += "</junk></methodCall>";
  auto junk = decode_call(skipped);
  ASSERT_FALSE(junk.is_ok());
  EXPECT_EQ(junk.status().code(), StatusCode::kInvalidArgument);
  auto response = decode_response("<methodResponse>" + skipped + "</methodResponse>");
  EXPECT_FALSE(response.is_ok());
}

// ---------------------------------------------------------------------------
// Pinned wire format: these bytes and verdicts were captured from the DOM
// decoder and ostringstream encoder the single-pass codec replaced. A change
// here changes what every XML-RPC peer sees.
// ---------------------------------------------------------------------------

TEST(XmlRpcWire, BytesArePinned) {
  const double inf = std::numeric_limits<double>::infinity();
  const Array params{
      Value(std::numeric_limits<std::int64_t>::min()), Value(0.1), Value(-0.0), Value(1e-12),
      Value(1e300), Value(inf), Value(-inf), Value(100.0), Value(1e17), Value(5e-324),
      Value("<>&\"'"), Value(), Value(true), Value(false),
      Value(Array{Value(1), Value(Struct{{"k", Value(Array{})}, {"a&b", Value("x")}})})};
  EXPECT_EQ(
      encode_call("ns.m<&>\"'", params),
      "<?xml version=\"1.0\"?><methodCall><methodName>ns.m&lt;&amp;&gt;&quot;&apos;</methodName>"
      "<params>"
      "<param><value><i8>-9223372036854775808</i8></value></param>"
      "<param><value><double>0.10000000000000001</double></value></param>"
      "<param><value><double>-0</double></value></param>"
      "<param><value><double>9.9999999999999998e-13</double></value></param>"
      "<param><value><double>1.0000000000000001e+300</double></value></param>"
      "<param><value><double>inf</double></value></param>"
      "<param><value><double>-inf</double></value></param>"
      "<param><value><double>100</double></value></param>"
      "<param><value><double>1e+17</double></value></param>"
      "<param><value><double>4.9406564584124654e-324</double></value></param>"
      "<param><value><string>&lt;&gt;&amp;&quot;&apos;</string></value></param>"
      "<param><value><nil/></value></param>"
      "<param><value><boolean>1</boolean></value></param>"
      "<param><value><boolean>0</boolean></value></param>"
      "<param><value><array><data><value><i8>1</i8></value><value><struct>"
      "<member><name>a&amp;b</name><value><string>x</string></value></member>"
      "<member><name>k</name><value><array><data></data></array></value></member>"
      "</struct></value></data></array></value></param>"
      "</params></methodCall>");
  EXPECT_EQ(encode_response(Value(Struct{{"pi", Value(3.141592653589793)},
                                         {"n", Value(std::int64_t{-42})},
                                         {"s", Value("")},
                                         {"z", Value(Array{})}})),
            "<?xml version=\"1.0\"?><methodResponse><params><param><value><struct>"
            "<member><name>n</name><value><i8>-42</i8></value></member>"
            "<member><name>pi</name><value><double>3.1415926535897931</double></value></member>"
            "<member><name>s</name><value><string></string></value></member>"
            "<member><name>z</name><value><array><data></data></array></value></member>"
            "</struct></value></param></params></methodResponse>");
  EXPECT_EQ(encode_fault(104, "bad <arg> & \"quote\" 'x'"),
            "<?xml version=\"1.0\"?><methodResponse><fault><value><struct>"
            "<member><name>faultCode</name><value><i8>104</i8></value></member>"
            "<member><name>faultString</name><value><string>bad &lt;arg&gt; &amp; "
            "&quot;quote&quot; &apos;x&apos;</string></value></member>"
            "</struct></value></fault></methodResponse>");
}

/// A call whose single <param> holds `inner`.
std::string param(const std::string& inner) {
  return "<methodCall><methodName>m</methodName><params><param>" + inner +
         "</param></params></methodCall>";
}

enum DocKind { kCall, kResponse };
constexpr const char* kRejected = nullptr;

struct PinnedDecode {
  const char* label;
  DocKind kind;
  std::string doc;
  /// What the document decodes to ("method [params]", the result, or
  /// "fault code string"), or kRejected.
  const char* want;
};

/// Renders a decode the way PinnedDecode::want spells it; nullopt if rejected.
std::optional<std::string> render(const PinnedDecode& c) {
  if (c.kind == kCall) {
    auto call = decode_call(c.doc);
    if (!call.is_ok()) return std::nullopt;
    return call.value().method + " " + Value(call.value().params).debug_string();
  }
  auto resp = decode_response(c.doc);
  if (!resp.is_ok()) return std::nullopt;
  if (!resp.value().is_fault) return resp.value().result.debug_string();
  return "fault " + std::to_string(resp.value().fault_code) + " " + resp.value().fault_string;
}

TEST(XmlRpcDecode, AcceptRejectTableIsPinned) {
  const std::vector<PinnedDecode> table = {
      {"empty_value", kCall, param("<value/>"), "m [\"\"]"},
      {"empty_string", kCall, param("<value><string/></value>"), "m [\"\"]"},
      {"empty_struct", kCall, param("<value><struct/></value>"), "m [{}]"},
      {"empty_data", kCall, param("<value><array><data/></array></value>"), "m [[]]"},
      {"array_without_data", kCall, param("<value><array/></value>"), kRejected},
      {"empty_int", kCall, param("<value><int/></value>"), kRejected},
      {"empty_nil", kCall, param("<value><nil/></value>"), "m [null]"},
      {"nil_with_content", kCall, param("<value><nil>x<y/></nil></value>"), "m [null]"},
      {"comment_in_value", kCall, param("<value><!-- c --><i4>5</i4><!-- d --></value>"), "m [5]"},
      {"comment_splits_text", kCall, param("<value>ab<!-- c -->cd</value>"), "m [\"abcd\"]"},
      {"comment_splits_entity", kCall, param("<value><string>&am<!--c-->p;</string></value>"), "m [\"&\"]"},
      {"comment_in_struct", kCall, param("<value><struct><!-- c --><member><name>k</name><!-- d --><value><i4>1</i4></value></member></struct></value>"), "m [{\"k\":1}]"},
      {"method_after_params", kCall, "<methodCall><params><param><value>x</value></param></params><methodName>late</methodName></methodCall>", "late [\"x\"]"},
      {"second_method_name_ignored", kCall, "<methodCall><methodName>a</methodName><methodName>b</methodName></methodCall>", "a []"},
      {"second_params_ignored", kCall, param("<value>1</value></param></params><params><param><value><int>zz</int></value>"), "m [\"1\"]"},
      {"duplicate_member_keeps_first", kCall, param("<value><struct><member><name>k</name><value>first</value></member><member><name>k</name><value>second</value></member></struct></value>"), "m [{\"k\":\"first\"}]"},
      {"duplicate_member_still_decoded", kCall, param("<value><struct><member><name>k</name><value>first</value></member><member><name>k</name><value><int>zz</int></value></member></struct></value>"), kRejected},
      {"member_value_before_name", kCall, param("<value><struct><member><value><i4>3</i4></value><name>k</name></member></struct></value>"), "m [{\"k\":3}]"},
      {"member_without_name", kCall, param("<value><struct><member><value><i4>3</i4></value></member></struct></value>"), kRejected},
      {"member_name_text_only", kCall, param("<value><struct><member><name>a<b/>c</name><value/></member></struct></value>"), "m [{\"ac\":\"\"}]"},
      {"struct_ignores_other_children", kCall, param("<value><struct>junk<other/><member><name>k</name><value/></member></struct></value>"), "m [{\"k\":\"\"}]"},
      {"array_ignores_other_children", kCall, param("<value><array><data>t<x/><value><i4>1</i4></value><value>s</value></data><data><value>ignored</value></data></array></value>"), "m [[1,\"s\"]]"},
      {"text_around_typed_child", kCall, param("<value> before <i4>9</i4> after </value>"), "m [9]"},
      {"first_typed_child_wins", kCall, param("<value><i4>1</i4><string>x</string></value>"), "m [1]"},
      {"second_value_ignored", kCall, param("<value>a</value><value><int>zz</int></value>"), "m [\"a\"]"},
      {"param_without_value", kCall, param("<other/>"), kRejected},
      {"attributes_ignored", kCall, "<methodCall a=\"1\" b='2'><methodName x=\"y\">m</methodName><params ><param\t><value\n><string lang=\"en\">v</string></value></param></params></methodCall>", "m [\"v\"]"},
      {"attribute_with_slash", kCall, "<methodCall><methodName>m</methodName><params a=\"1/2\"></params></methodCall>", kRejected},
      {"self_closing_with_attribute", kCall, "<methodCall><methodName>m</methodName><params a=\"1\"/></methodCall>", "m []"},
      {"int_leading_space", kCall, param("<value><int> 7</int></value>"), "m [7]"},
      {"int_trailing_junk", kCall, param("<value><int>7 x</int></value>"), "m [7]"},
      {"int_plus_sign", kCall, param("<value><i8>+12</i8></value>"), "m [12]"},
      {"int_out_of_range", kCall, param("<value><i4>99999999999999999999</i4></value>"), kRejected},
      {"int_entity", kCall, param("<value><int>&#52;2</int></value>"), "m [42]"},
      {"boolean_leading_space", kCall, param("<value><boolean> 1</boolean></value>"), kRejected},
      {"boolean_words", kCall, param("<value><boolean>true</boolean></value><value><boolean>2</boolean></value>"), "m [true]"},
      {"double_forms", kCall, param("<value><double> -1.5e3x</double></value>"), "m [-1500]"},
      {"double_inf", kCall, param("<value><double>inf</double></value>"), "m [inf]"},
      {"double_overflow", kCall, param("<value><double>1e400</double></value>"), kRejected},
      {"double_denormal", kCall, param("<value><double>4.9406564584124654e-324</double></value>"), "m [4.94066e-324]"},
      {"double_underflow", kCall, param("<value><double>1e-400</double></value>"), kRejected},
      {"double_hex", kCall, param("<value><double>0x1p3</double></value>"), "m [8]"},
      {"unknown_type", kCall, param("<value><float>1</float></value>"), kRejected},
      {"entities", kCall, param("<value>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#x;&#;&bogus;& loose</value>"), "m [\"<>&\\\"'AB&bogus;& loose\"]"},
      {"trailing_bytes_after_root", kCall, "<methodCall><methodName>m</methodName></methodCall> trailing <junk", "m []"},
      {"prolog_and_comments", kCall, "<?xml version=\"1.0\"?>\n<!-- a --><!-->\n<methodCall><methodName>m</methodName></methodCall>", "m []"},
      {"unterminated_prolog", kCall, "<?xml version=\"1.0\"", kRejected},
      {"mismatched_in_skipped_subtree", kCall, "<methodCall><methodName>m</methodName><extra><a></b></extra></methodCall>", kRejected},
      {"mismatched_in_nil", kCall, param("<value><nil><a></b></nil></value>"), kRejected},
      {"mismatched_after_params", kCall, "<methodCall><methodName>m</methodName><params/><x></y></methodCall>", kRejected},
      {"close_tag_with_space", kCall, "<methodCall><methodName>m</methodName ></methodCall>", kRejected},
      {"unterminated_comment", kCall, "<methodCall><methodName>m</methodName><!-- x</methodCall>", kRejected},
      {"wrong_root", kCall, "<methodResponse><params/></methodResponse>", kRejected},
      {"empty_root", kCall, "<methodCall/>", kRejected},
      {"empty_tag_name", kCall, "<methodCall><methodName>m</methodName><></></methodCall>", kRejected},
      {"bad_self_close", kCall, "<methodCall><methodName>m</methodName><a/ ></methodCall>", kRejected},
      {"cdata_is_an_element", kCall, param("<value><![CDATA[x]]></value>"), kRejected},
      {"response_value", kResponse, "<methodResponse><params><param><value><i4>1</i4></value></param></params></methodResponse>", "1"},
      {"response_second_param_ignored", kResponse, "<methodResponse><params><param><value>a</value></param><param><value><int>zz</int></value></param></params></methodResponse>", "\"a\""},
      {"response_first_param_without_value", kResponse, "<methodResponse><params><param/><param><value>a</value></param></params></methodResponse>", kRejected},
      {"response_params_without_param", kResponse, "<methodResponse><params/></methodResponse>", kRejected},
      {"response_fault_wins", kResponse, "<methodResponse><params><param><value>a</value></param></params><fault><value><struct><member><name>faultCode</name><value><int>104</int></value></member><member><name>faultString</name><value>no</value></member></struct></value></fault></methodResponse>", "fault 104 no"},
      {"response_fault_beats_bad_params", kResponse, "<methodResponse><params><param><value><int>zz</int></value></param></params><fault><value><struct><member><name>faultCode</name><value><int>7</int></value></member></struct></value></fault></methodResponse>", "fault 7 "},
      {"response_fault_beats_params_without_param", kResponse, "<methodResponse><params/><fault><value><struct/></value></fault></methodResponse>", "fault 0 "},
      {"response_bad_params_then_malformed", kResponse, "<methodResponse><params><param><value><int>zz</int></value></param></params><x></y></methodResponse>", kRejected},
      {"response_fault_without_value", kResponse, "<methodResponse><fault/></methodResponse>", kRejected},
      {"response_fault_untyped_members", kResponse, "<methodResponse><fault><value><struct></struct></value></fault></methodResponse>", "fault 0 "},
      {"response_trailing_bytes", kResponse, "<methodResponse><params><param><value>ok</value></param></params></methodResponse><extra>", "\"ok\""},
      {"response_empty", kResponse, "<methodResponse/>", kRejected},
  };
  for (const auto& c : table) {
    const auto got = render(c);
    if (c.want == kRejected) {
      EXPECT_FALSE(got.has_value()) << c.label << " decoded to " << *got;
    } else {
      ASSERT_TRUE(got.has_value()) << c.label << " was rejected";
      EXPECT_EQ(*got, c.want) << c.label;
    }
  }
}

}  // namespace
}  // namespace gae::rpc::xmlrpc
