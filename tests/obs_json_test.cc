// Pins the NDJSON formatting primitives every observability emitter routes
// through (obs/json.h). These are byte-level contracts: the determinism
// harness diffs whole files, so any drift here silently breaks byte-identity
// between builds. Each expectation is an exact string. The read side must
// invert them exactly.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/time.h"

namespace ppsim::obs {
namespace {

std::string escaped(std::string_view s) {
  std::ostringstream os;
  write_json_escaped(os, s);
  return os.str();
}

std::string quoted(std::string_view s) {
  std::ostringstream os;
  write_json_string(os, s);
  return os.str();
}

TEST(WriteJsonEscaped, NamedControlEscapes) {
  EXPECT_EQ(escaped("a\nb"), "a\\nb");
  EXPECT_EQ(escaped("a\rb"), "a\\rb");
  EXPECT_EQ(escaped("a\tb"), "a\\tb");
}

TEST(WriteJsonEscaped, QuotesAndBackslashes) {
  EXPECT_EQ(escaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escaped("C:\\path\\file"), "C:\\\\path\\\\file");
  // A backslash before a quote must not merge into one escape.
  EXPECT_EQ(escaped("\\\""), "\\\\\\\"");
}

TEST(WriteJsonEscaped, OtherControlCharsUseLowercaseUnicodeEscapes) {
  EXPECT_EQ(escaped(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(escaped(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(escaped(std::string("a\0b", 3)), "a\\u0000b");
  // 0x20 (space) and above pass through.
  EXPECT_EQ(escaped(" ~"), " ~");
}

TEST(WriteJsonEscaped, Utf8BytesPassThroughUnchanged) {
  // Multi-byte UTF-8 sequences have every byte >= 0x80; the escaper must
  // not mangle them into \u escapes or drop bytes.
  const std::string cafe = "caf\xc3\xa9";
  EXPECT_EQ(escaped(cafe), cafe);
  const std::string kanji = "\xe6\x97\xa5\xe6\x9c\xac";  // 日本
  EXPECT_EQ(escaped(kanji), kanji);
}

TEST(WriteJsonString, QuotesAndEscapesBody) {
  EXPECT_EQ(quoted("plain"), "\"plain\"");
  EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(quoted(""), "\"\"");
}

TEST(WriteJsonDouble, StableShortestishFormatting) {
  const auto fmt = [](double v) {
    std::ostringstream os;
    write_json_double(os, v);
    return os.str();
  };
  EXPECT_EQ(fmt(0.5), "0.5");
  EXPECT_EQ(fmt(0.0), "0");
  EXPECT_EQ(fmt(-3.0), "-3");
  EXPECT_EQ(fmt(1e-9), "1e-09");
}

TEST(WriteJsonSimTime, FixedMicrosecondPrecision) {
  const auto fmt = [](sim::Time t) {
    std::ostringstream os;
    write_json_sim_time(os, t);
    return os.str();
  };
  EXPECT_EQ(fmt(sim::Time::zero()), "0.000000");
  EXPECT_EQ(fmt(sim::Time::micros(12'345'678)), "12.345678");
  EXPECT_EQ(fmt(sim::Time::micros(1)), "0.000001");
  EXPECT_EQ(fmt(sim::Time::seconds(90)), "90.000000");
}

TEST(ReadJson, EveryWrittenStringReadsBackUnchanged) {
  const std::string values[] = {
      "",
      "plain",
      "say \"hi\"",
      "C:\\path\\",
      "\\\"",
      "line\nbreak\rand\ttab",
      std::string("\x01\x1f\0z", 4),
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac",
  };
  for (const std::string& v : values) {
    std::ostringstream os;
    os << "{\"k\":";
    write_json_string(os, v);
    os << ",\"n\":1}";
    std::string back = "unchanged";
    ASSERT_TRUE(read_json_string(os.str(), "k", &back)) << os.str();
    EXPECT_EQ(back, v) << os.str();
  }
}

TEST(ReadJson, EveryWrittenSimTimeReadsBackExactly) {
  for (const std::int64_t us :
       {0LL, 1LL, 249LL, 999'999LL, 1'000'000LL, 12'345'678LL,
        86'400'000'000LL}) {
    std::ostringstream os;
    os << "{\"t\":";
    write_json_sim_time(os, sim::Time::micros(us));
    os << '}';
    sim::Time back;
    ASSERT_TRUE(read_json_sim_time(os.str(), "t", &back)) << os.str();
    EXPECT_EQ(back.as_micros(), us) << os.str();
  }
  sim::Time t;
  ASSERT_TRUE(read_json_sim_time(R"({"t":0.5})", "t", &t));
  EXPECT_EQ(t, sim::Time::millis(500));
  for (const char* bad : {R"({"t":-1.000000})", R"({"t":1.0000001})",
                          R"({"t":1.})", R"({"t":1e3})", R"({"t":"1"})",
                          R"({"t":99999999999999.000000})"})
    EXPECT_FALSE(read_json_sim_time(bad, "t", &t)) << bad;
}

TEST(ReadJson, NumbersMustFillTheirToken) {
  const std::string row =
      R"({"u":18446744073709551615,"neg":-1,"frac":3.5,"d":0.1,"b":true})";
  std::uint64_t u = 7;
  EXPECT_TRUE(read_json_u64(row, "u", &u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  u = 7;
  EXPECT_FALSE(read_json_u64(row, "neg", &u));  // not 2^64-1
  EXPECT_FALSE(read_json_u64(row, "frac", &u));
  EXPECT_EQ(u, 7u);  // untouched on failure
  double d = 0;
  EXPECT_TRUE(read_json_double(row, "d", &d));
  EXPECT_EQ(d, 0.1);
  EXPECT_FALSE(read_json_double(row, "b", &d));
  bool b = false;
  EXPECT_TRUE(read_json_bool(row, "b", &b));
  EXPECT_TRUE(b);
  EXPECT_FALSE(read_json_bool(row, "u", &b));
}

TEST(ReadJson, KeysNeverMatchInsideStrings) {
  const std::string row = R"({"label":"x\",\"t\":9","t":"7"})";
  std::string v;
  ASSERT_TRUE(read_json_string(row, "t", &v));
  EXPECT_EQ(v, "7");
  ASSERT_TRUE(read_json_string(row, "label", &v));
  EXPECT_EQ(v, "x\",\"t\":9");
  v = "unchanged";
  EXPECT_FALSE(read_json_string(row, "missing", &v));
  EXPECT_FALSE(read_json_string(R"({"n":1})", "n", &v));  // not a string
  EXPECT_FALSE(read_json_string(R"({"k":"unterminated)", "k", &v));
  EXPECT_FALSE(read_json_string(R"({"k":"bad \q escape"})", "k", &v));
  EXPECT_EQ(v, "unchanged");
  EXPECT_EQ(find_json_value(R"({"a":1,"b":2})", "b"), 11u);
  EXPECT_EQ(find_json_value(R"({"a":"b:"})", "b"), std::string_view::npos);
}

}  // namespace
}  // namespace ppsim::obs
