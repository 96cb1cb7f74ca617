#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace canids::util {
namespace {

std::string nest(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonReaderTest, AcceptsExactlyTheRfc8259Grammar) {
  const std::vector<std::string> accepted = {
      "0", "-0", "1.5e-3", "-12E+4", "0.25", "true", "false", "null",
      R"("\"\\\/\b\f\n\r\t")", R"("é")", R"("😀")",
      "[]", "{}", " \t\r\n{\"a\": [1, {\"b\": null}], \"c\": true} \n",
      nest(kJsonMaxDepth)};
  for (const std::string& text : accepted) {
    EXPECT_NO_THROW((void)parse_json(text)) << text;
  }
  const std::vector<std::string> rejected = {
      "", " ", "+1", "01", "-01", ".5", "1.", "1e", "1e+", "-", "1.2.3",
      "NaN", "Infinity", "-Infinity", "0x10", "tru", "nul", "True",
      "\"\x01\"", "\"tab\there\"", R"("\ud800")", R"("\udc00")",
      R"("\ud800A")", R"("\q")", R"("\u12")", R"("\u12G4")",
      "\"abc", "[1,]", "[1 2]", "{\"a\" 1}", "{a: 1}", "{\"a\": 1,}",
      "{\"a\": 1", "[1] x", "{} {}", "\v1", nest(kJsonMaxDepth + 1),
      std::string(1000000, '[')};
  for (const std::string& text : rejected) {
    EXPECT_THROW((void)parse_json(text), std::invalid_argument) << text;
  }
}

TEST(JsonReaderTest, DecodesEscapesToUtf8) {
  EXPECT_EQ(parse_json(R"("a\"\\\/\b\f\n\r\t")").text, "a\"\\/\b\f\n\r\t");
  EXPECT_EQ(parse_json(R"("Aé€😀")").text,
            "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(JsonReaderTest, ObjectsKeepSourceOrderAndDuplicates) {
  const JsonValue value = parse_json(R"({"b": 1, "a": 2, "b": 3})");
  ASSERT_EQ(value.type, JsonValue::Type::kObject);
  ASSERT_EQ(value.members.size(), 3u);
  EXPECT_EQ(value.members[0].first, "b");
  EXPECT_EQ(value.members[1].first, "a");
  EXPECT_EQ(value.members[2].second.as<int>("b"), 3);
}

TEST(JsonReaderTest, IntegerReadsAreExactAndBounded) {
  const auto read = [](const char* text) { return parse_json(text); };
  EXPECT_EQ(read("9223372036854775807").as<std::int64_t>("k"), INT64_MAX);
  EXPECT_EQ(read("-9223372036854775808").as<std::int64_t>("k"), INT64_MIN);
  EXPECT_EQ(read("18446744073709551615").as<std::uint64_t>("k"), UINT64_MAX);
  EXPECT_EQ(read("9007199254740993").as<std::uint64_t>("k"),
            9007199254740993u);
  EXPECT_EQ(read("1436509052249713123").as<std::int64_t>("k"),
            1436509052249713123);
  EXPECT_EQ(read("[1, 2]").as<std::vector<std::uint32_t>>("k"),
            (std::vector<std::uint32_t>{1, 2}));
  for (const char* text : {"9223372036854775808", "-9223372036854775809",
                           "2.0", "1e3", "\"5\"", "true"}) {
    EXPECT_THROW((void)read(text).as<std::int64_t>("k"),
                 std::invalid_argument)
        << text;
  }
  for (const char* text : {"18446744073709551616", "-1", "-0"}) {
    EXPECT_THROW((void)read(text).as<std::uint64_t>("k"),
                 std::invalid_argument)
        << text;
  }
  EXPECT_THROW((void)read("4294967296").as<std::uint32_t>("k"),
               std::invalid_argument);
  EXPECT_THROW((void)read("[1, \"x\"]").as<std::vector<int>>("k"),
               std::invalid_argument);
}

TEST(JsonReaderTest, TypedReadsNameTheKey) {
  const auto message = [](const char* text, auto read) {
    try {
      read(parse_json(text));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message("10000000000",
                    [](const JsonValue& v) { (void)v.as<int>("seeds"); }),
            "key 'seeds' expects an integer in [-2147483648, 2147483647]");
  EXPECT_EQ(message("1e400",
                    [](const JsonValue& v) { (void)v.as<double>("alpha"); }),
            "key 'alpha' expects a finite number");
  EXPECT_EQ(message("1", [](const JsonValue& v) { (void)v.as<bool>("on"); }),
            "key 'on' expects a boolean");
  EXPECT_EQ(message("[1]",
                    [](const JsonValue& v) { (void)v.as<std::string>("s"); }),
            "key 's' expects a string");
  EXPECT_EQ(message("{}", [](const JsonValue& v) {
              (void)v.as<std::vector<double>>("rates");
            }),
            "key 'rates' expects an array");
  EXPECT_DOUBLE_EQ(parse_json("-2.5e-1").as<double>("x"), -0.25);
}

TEST(JsonWriterTest, StringsEscapeForTheReader) {
  const std::string raw = "q\"b\\s\n\r\t\x01\x1f\xC3\xA9";
  std::string literal;
  append_json_string(literal, raw);
  EXPECT_EQ(literal, "\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f\xC3\xA9\"");
  EXPECT_EQ(json_quoted(raw), literal);
  EXPECT_EQ(parse_json(literal).text, raw);
}

}  // namespace
}  // namespace canids::util
