#include "core/session_export.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ppsim::core {
namespace {

std::vector<SessionRecord> sample_sessions() {
  std::vector<SessionRecord> out;
  SessionRecord a;
  a.channel = 1;
  a.category = net::IspCategory::kTele;
  a.behind_nat = true;
  a.joined = sim::Time::seconds(10);
  a.left = sim::Time::seconds(130);
  a.completed = true;
  a.bytes_downloaded = 123456;
  a.bytes_uploaded = 7890;
  a.continuity = 0.97;
  out.push_back(a);

  SessionRecord b;
  b.channel = 2;
  b.category = net::IspCategory::kForeign;
  b.joined = sim::Time::seconds(50);
  b.left = sim::Time::seconds(600);
  b.completed = false;  // still watching at run end
  b.bytes_downloaded = 999;
  b.continuity = 0.5;
  out.push_back(b);
  return out;
}

TEST(SessionExportTest, RoundTrip) {
  auto original = sample_sessions();
  std::stringstream buffer;
  EXPECT_EQ(write_sessions_csv(buffer, original), original.size());

  std::size_t dropped = 1;
  auto restored = read_sessions_csv(buffer, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].channel, original[i].channel);
    EXPECT_EQ(restored[i].category, original[i].category);
    EXPECT_EQ(restored[i].behind_nat, original[i].behind_nat);
    EXPECT_EQ(restored[i].completed, original[i].completed);
    EXPECT_EQ(restored[i].bytes_downloaded, original[i].bytes_downloaded);
    EXPECT_EQ(restored[i].bytes_uploaded, original[i].bytes_uploaded);
    EXPECT_NEAR(restored[i].duration_seconds(),
                original[i].duration_seconds(), 1e-6);
    EXPECT_NEAR(restored[i].continuity, original[i].continuity, 1e-9);
  }
}

TEST(SessionExportTest, HeaderPresent) {
  std::stringstream buffer;
  write_sessions_csv(buffer, {});
  std::string header;
  std::getline(buffer, header);
  EXPECT_NE(header.find("channel,category"), std::string::npos);
}

TEST(SessionExportTest, MalformedRowsDropped) {
  std::stringstream buffer;
  buffer << "channel,category,nat,joined_s,left_s,completed,duration_s,"
            "bytes_down,bytes_up,continuity\n";
  buffer << "not,a,row\n";
  buffer << "1,99,0,0,1,1,1,0,0,1\n";  // category out of range
  buffer << "1,0,0,10,20,1,10,5,5,1\n";
  std::size_t dropped = 0;
  auto rows = read_sessions_csv(buffer, &dropped);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(dropped, 2u);
}

}  // namespace
}  // namespace ppsim::core
