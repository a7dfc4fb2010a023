#include "obs/bench_json.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ppsim::obs {
namespace {

TEST(BenchJson, WritesSortedWithHeaderAndRoundTrips) {
  std::vector<BenchEntry> entries = {
      {"BM_Zeta/100", 10, 123.5, 99},
      {"BM_Alpha", 1000, 7.25, 0},
  };
  std::ostringstream out;
  write_bench_json(out, entries);

  const std::string text = out.str();
  EXPECT_EQ(text.find("{\"bench_schema\":\"ppsim-bench-v1\",\"benchmarks\":2}"),
            0u);
  // Sorted by name regardless of registration order.
  EXPECT_LT(text.find("BM_Alpha"), text.find("BM_Zeta"));

  std::istringstream in(text);
  std::size_t dropped = 0;
  const auto parsed = read_bench_json(in, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "BM_Alpha");
  EXPECT_EQ(parsed[0].iterations, 1000u);
  EXPECT_DOUBLE_EQ(parsed[0].ns_per_op, 7.25);
  EXPECT_EQ(parsed[1].name, "BM_Zeta/100");
  EXPECT_EQ(parsed[1].peak_queue_depth, 99u);
}

TEST(BenchJson, ReaderCountsMalformedLines) {
  std::istringstream in(
      "{\"bench_schema\":\"ppsim-bench-v1\",\"benchmarks\":1}\n"
      "{\"name\":\"BM_Ok\",\"iterations\":5,\"ns_per_op\":1,"
      "\"peak_queue_depth\":0}\n"
      "{\"iterations\":5}\n"
      "garbage\n");
  std::size_t dropped = 0;
  const auto parsed = read_bench_json(in, &dropped);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "BM_Ok");
  EXPECT_EQ(dropped, 2u);
}

TEST(BenchJson, MacroFieldsWrittenOnlyWhenNonzeroAndRoundTrip) {
  BenchEntry micro;
  micro.name = "BM_Micro";
  micro.iterations = 10;
  micro.ns_per_op = 2.5;
  micro.peak_queue_depth = 3;

  BenchEntry macro;
  macro.name = "scale/peers:01000";
  macro.iterations = 100;
  macro.ns_per_op = 1500.0;
  macro.peak_queue_depth = 900;
  macro.rss_peak_bytes = 61489152;
  macro.wall_s = 25.5;

  std::ostringstream out;
  write_bench_json(out, {micro, macro});
  const std::string text = out.str();
  // Micro rows keep the exact historical layout — no macro keys at all.
  EXPECT_NE(
      text.find(
          "{\"name\":\"BM_Micro\",\"iterations\":10,\"ns_per_op\":2.5,"
          "\"peak_queue_depth\":3}\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("\"rss_peak_bytes\":61489152,\"wall_s\":25.5}"),
            std::string::npos)
      << text;

  std::istringstream in(text);
  const auto parsed = read_bench_json(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].rss_peak_bytes, 0u);  // BM_Micro sorts first
  EXPECT_DOUBLE_EQ(parsed[0].wall_s, 0.0);
  EXPECT_EQ(parsed[1].rss_peak_bytes, 61489152u);
  EXPECT_DOUBLE_EQ(parsed[1].wall_s, 25.5);
}

TEST(BenchJson, AllocsPerOpWrittenOnlyWhenNonzeroAndRoundTrip) {
  BenchEntry plain;
  plain.name = "scale/peers:01000";
  plain.iterations = 100;
  plain.ns_per_op = 1500.0;
  plain.rss_peak_bytes = 61489152;
  plain.wall_s = 25.5;
  BenchEntry counted = plain;
  counted.name = "scale/peers:05000";
  counted.allocs_per_op = 0.3125;

  std::ostringstream out;
  write_bench_json(out, {plain, counted});
  const std::string text = out.str();
  // Without a count the row keeps the macro layout byte for byte.
  EXPECT_NE(text.find("{\"name\":\"scale/peers:01000\",\"iterations\":100,"
                      "\"ns_per_op\":1500,\"peak_queue_depth\":0,"
                      "\"rss_peak_bytes\":61489152,\"wall_s\":25.5}\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"wall_s\":25.5,\"allocs_per_op\":0.3125}\n"),
            std::string::npos)
      << text;

  std::istringstream in(text);
  const auto parsed = read_bench_json(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed[0].allocs_per_op, 0.0);
  EXPECT_DOUBLE_EQ(parsed[1].allocs_per_op, 0.3125);
}

TEST(BenchJson, EmptyEntriesStillWriteHeader) {
  std::ostringstream out;
  write_bench_json(out, {});
  EXPECT_EQ(out.str(),
            "{\"bench_schema\":\"ppsim-bench-v1\",\"benchmarks\":0}\n");
  std::istringstream in(out.str());
  EXPECT_TRUE(read_bench_json(in).empty());
}

}  // namespace
}  // namespace ppsim::obs
