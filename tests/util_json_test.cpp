// Unit tests for the minimal JSON reader/writer.

#include <gtest/gtest.h>

#include "util/json.h"

using sleuth::util::Json;

TEST(Json, ParsesScalars)
{
    std::string err;
    EXPECT_TRUE(Json::parse("null", &err).isNull());
    EXPECT_TRUE(err.empty());
    EXPECT_EQ(Json::parse("true", &err).asBool(), true);
    EXPECT_EQ(Json::parse("false", &err).asBool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("3.5", &err).asNumber(), 3.5);
    EXPECT_EQ(Json::parse("-17", &err).asInt(), -17);
    EXPECT_EQ(Json::parse("\"hi\"", &err).asString(), "hi");
}

TEST(Json, ParsesNested)
{
    std::string err;
    Json v = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.at("a").asArray().size(), 3u);
    EXPECT_EQ(v.at("a").asArray()[2].at("b").asString(), "c");
    EXPECT_TRUE(v.at("d").isNull());
}

TEST(Json, ParsesEscapes)
{
    std::string err;
    Json v = Json::parse(R"("line\nbreak\t\"q\" \\ A")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "line\nbreak\t\"q\" \\ A");
}

TEST(Json, ParsesUnicodeEscapesToUtf8)
{
    std::string err;
    Json v = Json::parse(R"("é中")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(Json, SurrogatePairsDecodeToUtf8)
{
    std::string err;
    // U+1F600 GRINNING FACE -> one 4-byte sequence.
    Json v = Json::parse(R"("\ud83d\ude00")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
    // Uppercase hex and surrounding text.
    v = Json::parse(R"("a\uD83D\uDE00z")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "a\xf0\x9f\x98\x80z");
    // Highest code point U+10FFFF.
    v = Json::parse(R"("\udbff\udfff")", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, SurrogatePairRoundTripsThroughWriter)
{
    std::string err;
    Json v = Json::parse(R"({"emoji":"\ud83d\ude00"})", &err);
    ASSERT_TRUE(err.empty()) << err;
    // The writer emits the raw UTF-8 bytes; re-parsing them yields the
    // same string, so parse(dump(x)) == x.
    Json again = Json::parse(v.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(again.at("emoji").asString(), "\xf0\x9f\x98\x80");
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, LoneSurrogatesAreRejected)
{
    std::string err;
    Json::parse(R"("\ud83d")", &err);
    EXPECT_FALSE(err.empty());
    Json::parse(R"("\ud83dx")", &err);
    EXPECT_FALSE(err.empty());
    // High surrogate followed by a non-surrogate escape.
    Json::parse(R"("\ud83d\u0041")", &err);
    EXPECT_FALSE(err.empty());
    // Low surrogate with no preceding high surrogate.
    Json::parse(R"("\ude00")", &err);
    EXPECT_FALSE(err.empty());
    // Two high surrogates in a row.
    Json::parse(R"("\ud83d\ud83d")", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, ControlCharacterEscapesRoundTrip)
{
    // The writer escapes control characters as \u00XX; the parser must
    // decode them back to the identical byte.
    Json v(std::string("a\x01" "b\x1f"));
    std::string err;
    Json again = Json::parse(v.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(again.asString(), "a\x01" "b\x1f");
}

TEST(Json, TrailingBackslashAtEofIsUnterminated)
{
    std::string err;
    Json::parse("\"abc\\", &err);
    EXPECT_NE(err.find("unterminated string"), std::string::npos)
        << err;
    Json::parse("\"\\", &err);
    EXPECT_NE(err.find("unterminated string"), std::string::npos)
        << err;
    // A truncated \u escape at EOF must also error, not truncate.
    Json::parse("\"\\u12", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, ReportsErrors)
{
    std::string err;
    Json::parse("{", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("[1,]", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("tru", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("1 2", &err);
    EXPECT_FALSE(err.empty());
    Json::parse("\"unterminated", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Json, NestingDepthIsBounded)
{
    // Exactly kMaxDepth levels parse; one more is a recoverable error
    // naming the limit. Far deeper input (which used to overflow the
    // parser's stack) fails the same way.
    auto nested = [](size_t depth, const std::string &open,
                     const std::string &close) {
        std::string text;
        for (size_t i = 0; i < depth; ++i)
            text += open;
        text += "0";
        for (size_t i = 0; i < depth; ++i)
            text += close;
        return text;
    };
    std::string err;
    Json ok = Json::parse(nested(Json::kMaxDepth, "[", "]"), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(ok.type(), Json::Type::Array);

    Json::parse(nested(Json::kMaxDepth + 1, "[", "]"), &err);
    EXPECT_NE(err.find("nesting deeper than 256 levels"),
              std::string::npos)
        << err;
    Json::parse(nested(200000, "[", ""), &err);
    EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos)
        << err;
    Json::parse(nested(50000, "{\"k\":", "}"), &err);
    EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos)
        << err;
}

TEST(Json, RoundTripsCompact)
{
    std::string text =
        R"({"arr":[1,2.5,true,null],"num":-3,"obj":{"k":"v"},"s":"x"})";
    std::string err;
    Json v = Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.dump(), text);
}

TEST(Json, RoundTripsThroughPrettyPrint)
{
    std::string err;
    Json v = Json::parse(R"({"a":[1,{"b":[]}],"c":{}})", &err);
    ASSERT_TRUE(err.empty());
    Json again = Json::parse(v.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, BuilderApi)
{
    Json obj = Json::object();
    obj.set("k", 1);
    obj.set("list", Json::array());
    obj.asObject()["list"].push("a");
    obj.asObject()["list"].push(2.5);
    EXPECT_TRUE(obj.has("k"));
    EXPECT_FALSE(obj.has("missing"));
    EXPECT_EQ(obj.dump(), R"({"k":1,"list":["a",2.5]})");
}

TEST(Json, LargeIntegersSurvive)
{
    std::string err;
    Json v = Json::parse("1688888888000000", &err);
    ASSERT_TRUE(err.empty());
    EXPECT_EQ(v.asInt(), 1688888888000000LL);
    EXPECT_EQ(v.dump(), "1688888888000000");
}
