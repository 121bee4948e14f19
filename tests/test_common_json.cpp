#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace ecotune {
namespace {

TEST(Json, TypePredicates) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.14).is_number());
  EXPECT_TRUE(Json(7).is_number());
  EXPECT_TRUE(Json("hello").is_string());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_TRUE(Json::object().is_object());
}

TEST(Json, AccessorsThrowOnWrongType) {
  const Json j("text");
  EXPECT_THROW((void)j.as_number(), Error);
  EXPECT_THROW((void)j.as_bool(), Error);
  EXPECT_THROW((void)j.as_array(), Error);
  EXPECT_THROW((void)j.as_object(), Error);
  EXPECT_EQ(j.as_string(), "text");
}

TEST(Json, ObjectBuildAndAccess) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = "two";
  j["c"]["nested"] = true;  // auto-creates object
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").as_string(), "two");
  EXPECT_TRUE(j.at("c").at("nested").as_bool());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zzz"));
  EXPECT_THROW((void)j.at("zzz"), Error);
}

TEST(Json, ArrayPushBack) {
  Json j;
  j.push_back(1);
  j.push_back("x");
  ASSERT_TRUE(j.is_array());
  ASSERT_EQ(j.as_array().size(), 2u);
  EXPECT_EQ(j.as_array()[1].as_string(), "x");
}

TEST(Json, RoundTripThroughText) {
  Json j = Json::object();
  j["name"] = "Lulesh";
  j["threads"] = 24;
  j["ratio"] = 0.125;
  j["flag"] = false;
  j["nothing"] = nullptr;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  j["list"] = std::move(arr);

  const Json parsed = Json::parse(j.dump(2));
  EXPECT_EQ(parsed, j);
  const Json compact = Json::parse(j.dump(-1));
  EXPECT_EQ(compact, j);
}

TEST(Json, ParsesEscapes) {
  const Json j = Json::parse(R"({"s": "a\"b\\c\ndA"})");
  EXPECT_EQ(j.at("s").as_string(), "a\"b\\c\ndA");
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json j(std::string("line\nbreak\ttab\"quote"));
  const std::string out = j.dump(-1);
  EXPECT_EQ(Json::parse(out).as_string(), j.as_string());
}

TEST(Json, ParsesNumbersIncludingExponents) {
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5").as_number(), -2.5);
  EXPECT_DOUBLE_EQ(Json::parse("3.25e-2").as_number(), 0.0325);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").as_array().size(), 0u);
  EXPECT_EQ(Json::parse("{}").as_object().size(), 0u);
  EXPECT_EQ(Json::array().dump(-1), "[]");
  EXPECT_EQ(Json::object().dump(-1), "{}");
}

TEST(Json, DeterministicKeyOrder) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  const std::string out = j.dump(-1);
  EXPECT_LT(out.find("alpha"), out.find("zeta"));
}

TEST(Json, AsIntRoundsHalfAwayFromZeroAndRejectsNonInts) {
  EXPECT_EQ(Json(2.5).as_int(), 3);
  EXPECT_EQ(Json(-2.5).as_int(), -3);
  EXPECT_EQ(Json(2.4999).as_int(), 2);
  EXPECT_EQ(Json(2147483647.4).as_int(), std::numeric_limits<int>::max());
  EXPECT_EQ(Json(-2147483648.4).as_int(), std::numeric_limits<int>::min());

  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 2147483647.5,
        -2147483648.5, 1e300, -1e300}) {
    EXPECT_THROW((void)Json(bad).as_int(), Error) << bad;
  }
  // Payload decoding reaches as_int through parsed documents.
  EXPECT_THROW((void)Json::parse("4e9").as_int(), Error);
}

// --- Parser properties over generated documents ---------------------------

/// Random string over the characters the encoder treats specially (quote,
/// backslash, every control character) mixed with plain and non-ASCII
/// bytes.
std::string random_text(Rng& rng) {
  static constexpr char kSpecial[] = {'"', '\\', '/', '\n', '\t', '\r', '\b',
                                      '\f', '\0', '\x01', '\x1f', '\x7f'};
  std::string out;
  const auto n = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        out += kSpecial[rng.uniform_int(0, sizeof(kSpecial) - 1)];
        break;
      case 1:
        out += static_cast<char>(rng.uniform_int(0x80, 0xff));
        break;
      default:
        out += static_cast<char>(rng.uniform_int('a', 'z'));
    }
  }
  return out;
}

double random_number(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return static_cast<double>(rng.uniform_int(-1000, 1000));
    case 1:
      return rng.uniform(-1.0, 1.0);
    case 2:
      return rng.normal(0.0, 1.0) * std::pow(10.0, rng.uniform_int(-300, 300));
    default:
      return 0.1 + 0.2;
  }
}

/// Random document; containers only while `depth` lasts.
Json random_json(Rng& rng, int depth) {
  switch (rng.uniform_int(0, depth > 0 ? 6 : 3)) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng.uniform_int(0, 1) == 1);
    case 2:
      return Json(random_number(rng));
    case 3:
      return Json(random_text(rng));
    case 4: {
      Json arr = Json::array();
      const auto n = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < n; ++i)
        arr.push_back(random_json(rng, depth - 1));
      return arr;
    }
    default: {
      Json obj = Json::object();
      const auto n = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < n; ++i)
        obj[random_text(rng)] = random_json(rng, depth - 1);
      return obj;
    }
  }
}

/// Random document whose root is a container, so no strict prefix of its
/// text is itself a complete document.
Json random_container(Rng& rng) {
  Json root = rng.uniform_int(0, 1) == 1 ? Json::object() : Json::array();
  const auto n = rng.uniform_int(0, 4);
  for (std::int64_t i = 0; i < n; ++i) {
    if (root.is_object())
      root[random_text(rng)] = random_json(rng, 2);
    else
      root.push_back(random_json(rng, 2));
  }
  return root;
}

constexpr int kPropertyCases = 300;

TEST(JsonProperties, DumpParseDumpIsTheIdentity) {
  Rng rng(0x15500);
  for (int c = 0; c < kPropertyCases; ++c) {
    const Json doc = random_json(rng, 4);
    for (const int indent : {-1, 0, 2}) {
      const std::string text = doc.dump(indent);
      const Json parsed = Json::parse(text);
      ASSERT_EQ(parsed.dump(indent), text) << "case " << c;
      ASSERT_EQ(parsed, doc) << "case " << c;
    }
  }
}

TEST(JsonProperties, EveryStrictPrefixOfADocumentThrows) {
  Rng rng(0x15501);
  for (int c = 0; c < kPropertyCases; ++c) {
    const Json doc = random_container(rng);
    const std::string text = doc.dump(c % 2 == 0 ? -1 : 2);
    for (std::size_t n = 0; n < text.size(); ++n) {
      EXPECT_THROW((void)Json::parse(std::string_view(text).substr(0, n)),
                   Error)
          << "case " << c << " prefix " << n << " of " << text;
    }
  }
}

TEST(JsonProperties, DuplicateKeysAreLastWins) {
  EXPECT_EQ(Json::parse(R"({"a":1,"b":2,"a":3})").at("a").as_int(), 3);
  // Keys out of order land sorted; a duplicate replaces, never appends.
  const Json out_of_order = Json::parse(R"({"b":1,"a":2,"b":[],"c":0})");
  EXPECT_EQ(out_of_order.dump(-1), R"({"a":2,"b":[],"c":0})");

  Rng rng(0x15502);
  for (int c = 0; c < kPropertyCases; ++c) {
    Json doc = Json::object();
    const auto n = rng.uniform_int(1, 5);
    for (std::int64_t i = 0; i < n; ++i)
      doc[random_text(rng)] = random_json(rng, 2);
    // Re-emit the object with one key repeated at a random later position
    // carrying a fresh value: the parse must keep that last value.
    const auto& fields = doc.as_object();
    auto dup = fields.begin();
    std::advance(dup, rng.uniform_int(0, static_cast<std::int64_t>(
                                             fields.size()) - 1));
    const Json last = random_json(rng, 2);
    std::string text = "{";
    for (const auto& [key, value] : fields) {
      if (text.size() > 1) text += ',';
      text += Json(key).dump(-1) + ':' + value.dump(-1);
    }
    text += ',' + Json(dup->first).dump(-1) + ':' + last.dump(-1) + '}';

    Json expected = doc;
    expected[dup->first] = last;
    ASSERT_EQ(Json::parse(text), expected) << text;
  }
}

TEST(JsonProperties, AcceptsAllSixCLocaleWhitespaceCharacters) {
  for (const char ws : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    const std::string w(2, ws);
    const std::string text = w + '{' + w + "\"a\"" + w + ':' + w + '[' + w +
                             '1' + w + ',' + w + "true" + w + ']' + w + '}' +
                             w;
    const Json j = Json::parse(text);
    ASSERT_EQ(j.dump(-1), R"({"a":[1,true]})") << static_cast<int>(ws);
  }
  // Outside the C-locale set nothing is whitespace, whatever the locale.
  EXPECT_THROW((void)Json::parse("\xa0" "1"), Error);
  EXPECT_THROW((void)Json::parse(std::string{'1', '\0'}), Error);
}

}  // namespace
}  // namespace ecotune
