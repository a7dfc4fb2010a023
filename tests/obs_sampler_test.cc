#include "obs/sampler.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ppsim::obs {
namespace {

IspMatrix matrix_with(std::uint64_t diag, std::uint64_t off) {
  IspMatrix m{};
  for (std::size_t i = 0; i < m.size(); ++i)
    for (std::size_t j = 0; j < m.size(); ++j) m[i][j] = i == j ? diag : off;
  return m;
}

TEST(TrafficSampler, ComputesIntervalDeltasAndShares) {
  TrafficSampler sampler;
  // 5 ISPs: diag total 5*100, off-diag total 20*10 = 200 -> 700 cumulative.
  const auto first = sampler.record(sim::Time::seconds(10),
                                    matrix_with(100, 10), 0.25, 0.9, 7);
  EXPECT_EQ(first.interval_bytes, 700u);
  EXPECT_EQ(first.interval_same_isp_bytes, 500u);
  EXPECT_DOUBLE_EQ(first.same_isp_share_cum, 500.0 / 700.0);
  EXPECT_DOUBLE_EQ(first.same_isp_share_interval, 500.0 / 700.0);
  EXPECT_DOUBLE_EQ(first.neighbor_same_isp_share, 0.25);
  EXPECT_DOUBLE_EQ(first.avg_continuity, 0.9);
  EXPECT_EQ(first.alive_peers, 7u);

  // Second sample: only the diagonal grew (+50 per ISP = +250).
  const auto second = sampler.record(sim::Time::seconds(20),
                                     matrix_with(150, 10), 0.5, 0.95, 9);
  EXPECT_EQ(second.interval_bytes, 250u);
  EXPECT_EQ(second.interval_same_isp_bytes, 250u);
  EXPECT_DOUBLE_EQ(second.same_isp_share_interval, 1.0);
  EXPECT_DOUBLE_EQ(second.same_isp_share_cum, 750.0 / 950.0);
  ASSERT_EQ(sampler.samples().size(), 2u);
}

TEST(TrafficSampler, ZeroTrafficYieldsZeroShares) {
  TrafficSampler sampler;
  const auto s = sampler.record(sim::Time::seconds(1), IspMatrix{}, 0, 0, 0);
  EXPECT_EQ(s.interval_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.same_isp_share_cum, 0.0);
  EXPECT_DOUBLE_EQ(s.same_isp_share_interval, 0.0);
}

TEST(SamplesNdjson, RoundTrips) {
  TrafficSampler sampler;
  sampler.record(sim::Time::seconds(10), matrix_with(100, 10), 0.25, 0.9, 7);
  sampler.record(sim::Time::seconds(20), matrix_with(150, 12), 0.5, 0.95, 9);

  std::ostringstream os;
  write_samples_ndjson(os, sampler.samples());

  std::istringstream is(os.str());
  std::size_t dropped = 0;
  const auto back = read_samples_ndjson(is, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    const auto& a = sampler.samples()[i];
    const auto& b = back[i];
    EXPECT_EQ(a.t.as_micros(), b.t.as_micros());
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.interval_bytes, b.interval_bytes);
    EXPECT_EQ(a.interval_same_isp_bytes, b.interval_same_isp_bytes);
    EXPECT_NEAR(a.same_isp_share_cum, b.same_isp_share_cum, 1e-9);
    EXPECT_NEAR(a.same_isp_share_interval, b.same_isp_share_interval, 1e-9);
    EXPECT_NEAR(a.neighbor_same_isp_share, b.neighbor_same_isp_share, 1e-9);
    EXPECT_NEAR(a.avg_continuity, b.avg_continuity, 1e-9);
    EXPECT_EQ(a.alive_peers, b.alive_peers);
  }
}

TEST(SamplesNdjson, WriteIsByteStable) {
  TrafficSampler sampler;
  sampler.record(sim::Time::seconds(10), matrix_with(3, 1), 0.1, 0.5, 2);
  std::ostringstream first, second;
  write_samples_ndjson(first, sampler.samples());
  write_samples_ndjson(second, sampler.samples());
  EXPECT_EQ(first.str(), second.str());
}

TEST(SamplesNdjson, CountsMalformedLines) {
  std::istringstream is("not json at all\n");
  std::size_t dropped = 0;
  const auto parsed = read_samples_ndjson(is, &dropped);
  EXPECT_TRUE(parsed.empty());
  EXPECT_EQ(dropped, 1u);
}

TEST(SamplesNdjson, RejectsDuplicateTimestampRows) {
  TrafficSampler sampler;
  sampler.record(sim::Time::seconds(10), matrix_with(3, 1), 0.1, 0.5, 2);
  std::ostringstream os;
  write_samples_ndjson(os, sampler.samples());
  write_samples_ndjson(os, sampler.samples());  // the same rows twice

  std::istringstream is(os.str());
  std::size_t dropped = 0;
  std::string error;
  const auto parsed = read_samples_ndjson(is, &dropped, &error);
  EXPECT_TRUE(parsed.empty());
  EXPECT_NE(error.find("duplicate sample row"), std::string::npos) << error;
  EXPECT_NE(error.find("t=10"), std::string::npos) << error;
}

TEST(MatrixHelpers, TotalAndIntra) {
  const auto m = matrix_with(100, 10);
  EXPECT_EQ(matrix_total(m), 700u);
  EXPECT_EQ(matrix_intra_isp(m), 500u);
}

}  // namespace
}  // namespace ppsim::obs
