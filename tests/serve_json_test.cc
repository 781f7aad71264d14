// Tests for the minimal JSON layer behind the tegra_serve NDJSON protocol.

#include "service/serve_json.h"

#include <gtest/gtest.h>

namespace tegra {
namespace serve {
namespace {

TEST(ParseJsonTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool(true));
  EXPECT_DOUBLE_EQ(ParseJson("3.5")->AsNumber(), 3.5);
  EXPECT_DOUBLE_EQ(ParseJson("-12")->AsNumber(), -12);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->AsNumber(), 1000);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(ParseJsonTest, RequestShapedObject) {
  auto parsed = ParseJson(
      R"({"id": 7, "lines": ["a b", "c d"], "columns": 2,)"
      R"( "deadline_ms": 50.5, "bypass_cache": true})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;
  EXPECT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v["id"].AsNumber(), 7);
  ASSERT_EQ(v["lines"].AsArray().size(), 2u);
  EXPECT_EQ(v["lines"].AsArray()[0].AsString(), "a b");
  EXPECT_DOUBLE_EQ(v["columns"].AsNumber(), 2);
  EXPECT_DOUBLE_EQ(v["deadline_ms"].AsNumber(), 50.5);
  EXPECT_TRUE(v["bypass_cache"].AsBool());
  // Missing keys chain to null safely.
  EXPECT_TRUE(v["missing"].is_null());
  EXPECT_TRUE(v["missing"]["nested"].is_null());
  EXPECT_DOUBLE_EQ(v["missing"].AsNumber(123), 123);
}

TEST(ParseJsonTest, EscapesRoundTrip) {
  auto parsed = ParseJson(R"("line\n\ttab \"quote\" back\\slash A")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "line\n\ttab \"quote\" back\\slash A");

  JsonValue v = JsonValue::Str("a\"b\\c\nd\x01");
  auto reparsed = ParseJson(v.Dump());
  ASSERT_TRUE(reparsed.ok()) << v.Dump();
  EXPECT_EQ(reparsed->AsString(), "a\"b\\c\nd\x01");
}

TEST(ParseJsonTest, NestedStructuresRoundTrip) {
  const std::string doc =
      R"({"a":[1,2,[3]],"b":{"c":null,"d":[true,false]},"e":"x"})";
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), doc);
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1}extra").ok());
  EXPECT_FALSE(ParseJson("1e").ok());
  for (const auto& bad : {"\"\\q\"", "\"\\u12g4\""}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
}

TEST(ParseJsonTest, DeepNestingIsRejectedNotCrashed) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonValueTest, BuildersProduceCompactJson) {
  JsonValue obj = JsonValue::Object();
  obj.Set("ok", JsonValue::Bool(true));
  obj.Set("n", JsonValue::Number(3));
  obj.Set("frac", JsonValue::Number(0.5));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Str("x"));
  arr.Append(JsonValue::Null());
  obj.Set("items", std::move(arr));
  EXPECT_EQ(obj.Dump(),
            R"({"frac":0.5,"items":["x",null],"n":3,"ok":true})");
}

TEST(JsonValueTest, EveryAsciiByteRoundTripsThroughDumpAndParse) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) all += static_cast<char>(c);
  all += "\"\\";
  const std::string dumped = JsonValue::Str(all).Dump();
  auto parsed = ParseJson(dumped);
  ASSERT_TRUE(parsed.ok()) << dumped;
  EXPECT_EQ(parsed->AsString(), all);

  // Object keys go through the same escaper.
  JsonValue obj = JsonValue::Object();
  obj.Set(all, JsonValue::Number(1));
  auto reparsed = ParseJson(obj.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->Has(all));
}

}  // namespace
}  // namespace serve
}  // namespace tegra
