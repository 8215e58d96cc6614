#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace {

using gcs::util::json::Array;
using gcs::util::json::Error;
using gcs::util::json::Object;
using gcs::util::json::Value;
using gcs::util::json::dump;
using gcs::util::json::dump_number;
using gcs::util::json::parse;
using gcs::util::json::read_file;

// The message of the Error `fn` throws, or "" when it throws none.
template <class Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Json, ReadFileStopsPastTheCap) {
  // /dev/zero never ends: the reader stops one chunk past the 64 MiB cap
  // and names the path and the cap, where reading to EOF ran out of
  // memory.  parse_file reads through it.
  const std::string cap = std::to_string(gcs::util::json::kMaxFileBytes);
  EXPECT_EQ(gcs::util::json::kMaxFileBytes, std::size_t{64} << 20);
  for (const std::string& message :
       {error_of([] { read_file("/dev/zero"); }),
        error_of([] { gcs::util::json::parse_file("/dev/zero"); })}) {
    EXPECT_NE(message.find("/dev/zero"), std::string::npos) << message;
    EXPECT_NE(message.find(cap + " bytes"), std::string::npos) << message;
  }
  // A file of exactly the cap reads whole; one byte more is refused.
  // Both are sparse, so they take no disk space.
  const std::string path = ::testing::TempDir() + "read_file_cap.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << "[1,2]";
  }
  EXPECT_EQ(read_file(path), "[1,2]");
  std::filesystem::resize_file(path, gcs::util::json::kMaxFileBytes);
  EXPECT_EQ(read_file(path).size(), gcs::util::json::kMaxFileBytes);
  std::filesystem::resize_file(path, gcs::util::json::kMaxFileBytes + 1);
  const std::string over = error_of([&] { read_file(path); });
  EXPECT_NE(over.find(path + " is larger than the read cap of " + cap +
                      " bytes"),
            std::string::npos)
      << over;
  EXPECT_NE(error_of([] { read_file("/no/such/dir/file.json"); })
                .find("cannot read /no/such/dir/file.json"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_number(), 42.0);
  EXPECT_EQ(parse("-0.5").as_number(), -0.5);
  EXPECT_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  [1, 2]  ").as_array().size(), 2u);
}

TEST(Json, ParsesNestedDocument) {
  const Value doc = parse(R"({
    "name": "smoke",
    "sweep": {"n": [8, 16], "topology": ["ring", "complete"]},
    "check": true,
    "slack": 1e-6
  })");
  EXPECT_EQ(doc.at("name").as_string(), "smoke");
  EXPECT_EQ(doc.at("sweep").at("n").as_array()[1].as_number(), 16.0);
  EXPECT_EQ(doc.at("sweep").at("topology").as_array()[0].as_string(), "ring");
  EXPECT_TRUE(doc.at("check").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("slack").as_number(), 1e-6);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), Error);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(parse(R"("€")").as_string(), "\xe2\x82\xac");      // €
  EXPECT_EQ(parse(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");  // 😀 via surrogate pair
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,]"), Error);
  EXPECT_THROW(parse("{\"a\":1,}"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("truex"), Error);
  EXPECT_THROW(parse("1 2"), Error);
  EXPECT_THROW(parse("'single'"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("\"bad \\q escape\""), Error);
  EXPECT_THROW(parse("\"\\ud800 unpaired\""), Error);
  EXPECT_THROW(parse("01x"), Error);
  EXPECT_THROW(parse("{\"a\":1,\"a\":2}"), Error);  // duplicate key
  EXPECT_THROW(parse("1e999"), Error);              // overflows double
}

// read_number is the number reader of every spec, override and option:
// it accepts exactly the numbers parse() accepts, with the same value.
TEST(Json, ReadNumberIsTheParserGrammar) {
  using gcs::util::json::NumberText;
  using gcs::util::json::read_number;
  for (const char* text : {"0", "-0", "8000", "0.25", "2.5e-1", "1E5", "1.",
                           "-3.75e+2", "1e-400", "007"}) {
    double v = -1.0;
    ASSERT_EQ(read_number(text, &v), NumberText::kFinite) << text;
    const double parsed = parse(text).as_number();
    EXPECT_EQ(std::memcmp(&v, &parsed, sizeof v), 0) << text;
  }
  for (const char* text : {"nan", "-nan", "inf", "-inf", "Infinity", "1e400",
                           "-1e999"}) {
    double v = -1.0;
    EXPECT_EQ(read_number(text, &v), NumberText::kNonFinite) << text;
    EXPECT_EQ(v, -1.0) << text;  // untouched
  }
  for (const char* text : {"", " 1", "1 ", "+1", ".5", "-.5", "0x10",
                           "0x1p-1", "1e", "1e+", "8000x", "abc", "--1", "1,2",
                           "0.25junk"}) {
    double v = -1.0;
    EXPECT_EQ(read_number(text, &v), NumberText::kNotNumber) << text;
    EXPECT_EQ(v, -1.0) << text;
  }
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.as_number(), Error);
  EXPECT_THROW(parse("1.5").as_u64(), Error);
  EXPECT_THROW(parse("-1").as_u64(), Error);
  EXPECT_EQ(parse("123456789").as_u64(), 123456789u);
}

TEST(Json, DumpIsDeterministicAndSorted) {
  Value v;
  v["zeta"] = 1;
  v["alpha"] = Value(Array{Value(1), Value("two"), Value(nullptr)});
  v["mid"] = Value(Object{{"k", Value(true)}});
  EXPECT_EQ(dump(v), R"({"alpha":[1,"two",null],"mid":{"k":true},"zeta":1})");
}

TEST(Json, NumberFormattingRoundTrips) {
  // Integers print without decimal point or exponent.
  EXPECT_EQ(dump_number(0.0), "0");
  EXPECT_EQ(dump_number(42.0), "42");
  EXPECT_EQ(dump_number(-7.0), "-7");
  EXPECT_EQ(dump_number(9007199254740991.0), "9007199254740991");
  // Non-integers use the shortest form that round-trips exactly.
  for (const double v : {0.1, 1.0 / 3.0, 6.02e23, -2.5e-8, 3.0000000000000004,
                         std::numeric_limits<double>::denorm_min()}) {
    const std::string s = dump_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(dump_number(0.1), "0.1");
  EXPECT_THROW(dump_number(std::nan("")), Error);
  EXPECT_THROW(dump_number(std::numeric_limits<double>::infinity()), Error);
}

TEST(Json, ParseDumpParseIsIdentity) {
  const char* docs[] = {
      "null",
      "[[],{},[{}],\"\"]",
      R"({"a":[1,2.5,-3e-4],"b":{"c":"d\ne","f":[true,false,null]}})",
      R"({"skew":0.123456789012345678,"n":128,"neg":-0.0625})",
  };
  for (const char* doc : docs) {
    const Value once = parse(doc);
    const std::string emitted = dump(once);
    const Value twice = parse(emitted);
    EXPECT_EQ(once, twice) << doc;
    EXPECT_EQ(emitted, dump(twice)) << doc;  // byte-stable
  }
}

// The formatter dump_number replaced: a %.0f integer branch, then every
// %.*g precision from 1 up until strtod reads the text back as v.
std::string reference_dump_number(double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

TEST(Json, DumpNumberMatchesThePrintfLoopByteForByte) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1.0 / 3.0,
                                2.0 / 3.0, 1e-300, 1e300, -1e-7, 123.456,
                                9007199254740991.0, 9007199254740992.0,
                                9007199254740993.0, 1e22, 1e23, 5e-324,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon()};
  for (int k = -1074; k <= 1023; ++k) {
    values.push_back(std::ldexp(1.0, k));
    values.push_back(-std::ldexp(1.0, k));
    values.push_back(std::nextafter(std::ldexp(1.0, k), 0.0));
  }
  for (std::int64_t i = -1000; i <= 1000; ++i) {
    values.push_back(static_cast<double>(i));
    values.push_back(static_cast<double>(i) / 1000.0);
  }
  std::mt19937_64 gen(20261018);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns (subnormals and huge exponents included) and
    // the short decimals simulation output is made of.
    const double x = from_bits(gen());
    if (std::isfinite(x)) values.push_back(x);
    values.push_back(std::round(unit(gen) * 1e6) / 1e4);
    values.push_back(from_bits(gen() & 0x800FFFFFFFFFFFFFULL));  // subnormal
  }
  for (const double v : values) {
    ASSERT_EQ(dump_number(v), reference_dump_number(v))
        << "bits " << std::hex << [&] {
             std::uint64_t b;
             std::memcpy(&b, &v, sizeof b);
             return b;
           }();
  }
}

TEST(Json, PrettyPrintReparsesEqual) {
  const Value v = parse(R"({"a":[1,2],"b":{"c":[{"d":null}]},"e":[]})");
  const std::string pretty = dump(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), v);
}

}  // namespace
