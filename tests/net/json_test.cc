#include "net/json.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest-spi.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace declsched::net {
namespace {

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).MoveValue() : JsonValue();
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").AsBool(), true);
  EXPECT_EQ(MustParse("false").AsBool(), false);
  EXPECT_EQ(MustParse("42").AsInt64(), 42);
  EXPECT_EQ(MustParse("-7").AsInt64(), -7);
  EXPECT_DOUBLE_EQ(MustParse("2.5").AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(MustParse("1e3").AsDouble(), 1000.0);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructure) {
  const JsonValue v = MustParse(
      R"({"tenant":3,"txns":[{"ops":[{"op":"write","object":9}]}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Get("tenant")->AsInt64(), 3);
  const JsonValue* txns = v.Get("txns");
  ASSERT_TRUE(txns != nullptr && txns->is_array());
  ASSERT_EQ(txns->size(), 1u);
  const JsonValue* ops = txns->at(0).Get("ops");
  ASSERT_TRUE(ops != nullptr && ops->is_array());
  EXPECT_EQ(ops->at(0).Get("op")->AsString(), "write");
  EXPECT_EQ(ops->at(0).Get("object")->AsInt64(), 9);
}

TEST(JsonTest, GetOnAbsentKeyOrNonObjectIsNull) {
  const JsonValue v = MustParse(R"({"a":1})");
  EXPECT_EQ(v.Get("b"), nullptr);
  EXPECT_EQ(MustParse("[1]").Get("a"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\nd\te")").AsString(), "a\"b\\c\nd\te");
  // \uXXXX decodes to UTF-8.
  EXPECT_EQ(MustParse(R"("\u0041")").AsString(), "A");
  EXPECT_EQ(MustParse(R"("\u00e9")").AsString(), "\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1}garbage", "[1,]", "nan", "+1"}) {
    Result<JsonValue> parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(10000, '[');
  deep += std::string(10000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, DumpRoundTrips) {
  const std::string compact =
      R"({"a":1,"b":[true,null,"x"],"c":{"d":-2}})";
  EXPECT_EQ(MustParse(compact).Dump(), compact);
}

TEST(JsonTest, BuildAndDump) {
  JsonValue obj = JsonValue::Object();
  obj.Set("n", JsonValue::Int(5));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Str("a\"b"));
  obj.Set("list", std::move(arr));
  EXPECT_EQ(obj.Dump(), R"({"n":5,"list":["a\"b"]})");
}

TEST(JsonTest, JsonQuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(JsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
}

/// A random well-formed document: nested objects/arrays up to `depth`,
/// ints, doubles, escaped strings, literals.
std::string RandomDocument(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.UniformInt(0, depth > 0 ? 6 : 4));
  switch (kind) {
    case 0: return "null";
    case 1: return rng.Bernoulli(0.5) ? "true" : "false";
    case 2: return std::to_string(rng.UniformInt(-1000000, 1000000));
    case 3: return std::to_string(rng.UniformInt(-999, 999)) + "." +
                   std::to_string(rng.UniformInt(0, 999)) + "e" +
                   std::to_string(rng.UniformInt(-5, 5));
    case 4: {
      static const char* kPieces[] = {"a", "op", "\\\"", "\\\\", "\\n",
                                      "\\u00e9", "\\/", "x y", "\xc3\xa9"};
      std::string out = "\"";
      for (int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
        out += kPieces[rng.UniformInt(0, 8)];
      }
      return out + "\"";
    }
    case 5: {
      std::string out = "[";
      for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
        if (out.size() > 1) out += ",";
        out += RandomDocument(rng, depth - 1);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
        if (out.size() > 1) out += ",";
        out += "\"k" + std::to_string(rng.UniformInt(0, 9)) +
               "\":" + RandomDocument(rng, depth - 1);
      }
      return out + "}";
    }
  }
}

std::vector<uint64_t> FuzzSeeds() {
  return testing::SeedsFromEnv("DECLSCHED_JSON_FUZZ_SEEDS",
                               {1, 2, 3, 0xdead, 0xbeef, 0xc0ffee, 0x5eedf00d,
                                42424242});
}

TEST(JsonTest, MalformedByteFuzzNeverBreaksTheParser) {
  // Request bodies are hostile input. Whatever the bytes, Parse must
  // return a value or a ParseError — never crash, hang or recurse without
  // bound — and anything it accepts must serialize to a document that
  // parses back to the same serialization.
  for (const uint64_t seed : FuzzSeeds()) {
    Rng rng(seed);
    for (int round = 0; round < 400; ++round) {
      std::string text;
      const int shape = static_cast<int>(rng.UniformInt(0, 3));
      if (shape == 0) {
        // Pure noise.
        text.resize(static_cast<size_t>(rng.UniformInt(0, 256)));
        for (char& b : text) b = static_cast<char>(rng.NextU64() & 0xff);
      } else if (shape == 3) {
        // Nesting right around the depth limit, sometimes unbalanced.
        const int64_t levels = rng.UniformInt(50, 80);
        for (int64_t i = 0; i < levels; ++i) {
          text += rng.Bernoulli(0.5) ? "[" : "{\"k\":";
        }
        text += "1";
        for (int64_t i = 0; i < levels; ++i) {
          text += rng.Bernoulli(0.9) ? "]" : "}";
        }
      } else {
        const std::string valid = RandomDocument(rng, 4);
        ASSERT_TRUE(JsonValue::Parse(valid).ok())
            << "seed " << seed << " round " << round << ": " << valid;
        text = valid;
        if (shape == 1) {
          // Flip bits, or plant the bytes the grammar splits on.
          static const char kPlanted[] = {'{', '}', '[', ']', '"', ':',
                                          ',', '\\', '-', 'e', '.', '\0'};
          for (int64_t i = rng.UniformInt(1, 6); i > 0 && !text.empty(); --i) {
            char& b = text[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1))];
            if (rng.Bernoulli(0.5)) {
              b ^= static_cast<char>(1 << rng.UniformInt(0, 7));
            } else {
              b = kPlanted[rng.UniformInt(0, 11)];
            }
          }
        } else {
          // Truncate mid-document, then append noise.
          text.resize(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(text.size()))));
          for (int64_t i = rng.UniformInt(0, 8); i > 0; --i) {
            text += static_cast<char>(rng.NextU64() & 0xff);
          }
        }
      }

      Result<JsonValue> parsed = JsonValue::Parse(text);
      if (!parsed.ok()) {
        ASSERT_TRUE(parsed.status().IsParseError())
            << "seed " << seed << " round " << round << ": "
            << parsed.status().ToString();
        continue;
      }
      const std::string dumped = parsed->Dump();
      Result<JsonValue> reparsed = JsonValue::Parse(dumped);
      ASSERT_TRUE(reparsed.ok())
          << "seed " << seed << " round " << round << ": accepted input "
          << "serialized to unparseable " << dumped;
      ASSERT_EQ(reparsed->Dump(), dumped)
          << "seed " << seed << " round " << round;
    }
  }
}

TEST(SeedsFromEnvTest, AddsEnvSeedsAndFailsLoudlyOnMalformedTokens) {
  constexpr const char* kVar = "DECLSCHED_TEST_UTIL_SEEDS";
  ::unsetenv(kVar);
  EXPECT_EQ(testing::SeedsFromEnv(kVar, {5, 55}),
            (std::vector<uint64_t>{5, 55}));
  ::setenv(kVar, "7, 55,77", 1);
  EXPECT_EQ(testing::SeedsFromEnv(kVar, {5, 55}),
            (std::vector<uint64_t>{5, 55, 7, 77}));
  // A malformed token fails the test instead of vanishing or running as
  // seed 0; the well-formed seeds around it still run.
  for (const char* bad : {"5,x,7", "5,,7", "7,", "-3", "12abc",
                          "99999999999999999999999"}) {
    ::setenv(kVar, bad, 1);
    std::vector<uint64_t> seeds;
    EXPECT_NONFATAL_FAILURE(seeds = testing::SeedsFromEnv(kVar, {1}),
                            "malformed seed token");
    EXPECT_EQ(seeds.front(), 1u) << bad;
  }
  ::setenv(kVar, "5,x,7", 1);
  std::vector<uint64_t> seeds;
  EXPECT_NONFATAL_FAILURE(seeds = testing::SeedsFromEnv(kVar, {}),
                          "malformed seed token");
  EXPECT_EQ(seeds, (std::vector<uint64_t>{5, 7}));
  ::unsetenv(kVar);
}

}  // namespace
}  // namespace declsched::net
