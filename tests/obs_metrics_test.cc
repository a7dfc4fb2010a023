#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace ppsim::obs {
namespace {

TEST(MetricsRegistry, CounterRegistersOnceAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same identity returns the same instance.
  EXPECT_EQ(&reg.counter("requests"), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishInstances) {
  MetricsRegistry reg;
  Counter& a = reg.counter("bytes", {{"isp", "TELE"}});
  Counter& b = reg.counter("bytes", {{"isp", "CNC"}});
  EXPECT_NE(&a, &b);
  a.inc(10);
  b.inc(20);
  EXPECT_EQ(reg.find_counter("bytes", {{"isp", "TELE"}})->value(), 10u);
  EXPECT_EQ(reg.find_counter("bytes", {{"isp", "CNC"}})->value(), 20u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter& a = reg.counter("m", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, FindReturnsNullForUnknown) {
  MetricsRegistry reg;
  reg.counter("known");
  EXPECT_EQ(reg.find_counter("unknown"), nullptr);
  EXPECT_EQ(reg.find_gauge("known"), nullptr);  // wrong kind
  EXPECT_EQ(reg.find_counter("known", {{"k", "v"}}), nullptr);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("continuity");
  g.set(0.5);
  g.set(0.97);
  EXPECT_DOUBLE_EQ(reg.find_gauge("continuity")->value(), 0.97);
}

TEST(Histogram, BucketsAreUpperInclusiveWithOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive upper edge)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(Histogram, QuantileOfEmptyIsNaN) {
  Histogram h({1.0, 10.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(Histogram, QuantileSingleSampleReturnsItsBucketBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(5.0);
  // Every quantile of a one-sample histogram is that sample's tightest
  // upper bucket bound — including q=0 (rank clamps to the first sample).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileAtExactBucketBoundaries) {
  Histogram h({1.0, 10.0, 100.0});
  // Samples on upper-inclusive edges land in the bound's own bucket, so the
  // reported quantile is the edge itself, not the next bound up.
  h.observe(1.0);
  h.observe(10.0);
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0 / 3.0), 1.0);   // rank 1 -> first bucket
  EXPECT_DOUBLE_EQ(h.quantile(2.0 / 3.0), 10.0);  // rank 2 -> second
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);       // rank 3 -> third
  // Just past a rank boundary selects the next bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.34), 10.0);
}

TEST(Histogram, QuantileOverflowBucketIsInfinity) {
  Histogram h({1.0});
  h.observe(0.5);
  h.observe(100.0);  // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_TRUE(std::isinf(h.quantile(1.0)));
}

TEST(Histogram, QuantileClampsOutOfRangeQ) {
  Histogram h({1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1.0);  // treated as q=0
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 10.0);  // treated as q=1
}

TEST(MetricsRegistry, HistogramRegistersAndReuses) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("latency", {0.1, 1.0});
  h.observe(0.05);
  EXPECT_EQ(&reg.histogram("latency", {0.1, 1.0}), &h);
  EXPECT_EQ(reg.find_histogram("latency")->count(), 1u);
}

TEST(MetricsRegistry, NdjsonIsStableAndSorted) {
  MetricsRegistry reg;
  // Register in non-sorted order; dump must come out sorted by identity.
  reg.counter("zz").inc(1);
  reg.counter("aa", {{"isp", "TELE"}}).inc(7);
  reg.gauge("mid").set(1.5);

  std::ostringstream first;
  reg.write_ndjson(first);
  std::ostringstream second;
  reg.write_ndjson(second);
  EXPECT_EQ(first.str(), second.str());

  const std::string dump = first.str();
  const auto aa = dump.find("\"aa\"");
  const auto mid = dump.find("\"mid\"");
  const auto zz = dump.find("\"zz\"");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, mid);
  EXPECT_LT(mid, zz);
  EXPECT_NE(dump.find("{\"metric\":\"aa\",\"type\":\"counter\",\"labels\":"
                      "{\"isp\":\"TELE\"},\"value\":7}"),
            std::string::npos);
}

TEST(Histogram, MergeAddsBucketsCountAndSum) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  a.observe(0.5);
  a.observe(5.0);
  b.observe(5.0);
  b.observe(50.0);  // overflow bucket
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 60.5);
  EXPECT_EQ(a.bucket_counts()[0], 1u);
  EXPECT_EQ(a.bucket_counts()[1], 2u);
  EXPECT_EQ(a.bucket_counts()[2], 1u);  // overflow
}

TEST(Histogram, MergeIsDeterministicLeftFold) {
  // Integer-valued observations make FP addition exact, so any fold order
  // gives the same sum — but the contract is the *caller's* order, and the
  // serialized form must come out byte-identical for the same fold.
  auto make = [](double v) {
    Histogram h({1.0, 10.0});
    h.observe(v);
    return h;
  };
  Histogram left({1.0, 10.0});
  for (const double v : {0.5, 5.0, 50.0, 7.0}) left.merge(make(v));
  Histogram again({1.0, 10.0});
  for (const double v : {0.5, 5.0, 50.0, 7.0}) again.merge(make(v));
  EXPECT_EQ(left.count(), again.count());
  EXPECT_DOUBLE_EQ(left.sum(), again.sum());
  EXPECT_EQ(left.bucket_counts(), again.bucket_counts());
}

TEST(MetricsRegistry, NdjsonHistogramRow) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("d", {1.0});
  h.observe(0.5);
  h.observe(2.0);
  std::ostringstream os;
  reg.write_ndjson(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(dump.find("\"count\":2"), std::string::npos);
  EXPECT_NE(dump.find("\"le\":\"+inf\""), std::string::npos);
}

}  // namespace
}  // namespace ppsim::obs
