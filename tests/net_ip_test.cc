#include "net/ip.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

namespace ppsim::net {
namespace {

TEST(IpAddressTest, OctetConstruction) {
  IpAddress ip(192, 168, 1, 5);
  EXPECT_EQ(ip.value(), 0xC0A80105u);
  EXPECT_EQ(ip.to_string(), "192.168.1.5");
}

TEST(IpAddressTest, DefaultUnspecified) {
  IpAddress ip;
  EXPECT_TRUE(ip.is_unspecified());
  EXPECT_EQ(ip.to_string(), "0.0.0.0");
}

struct RoundTripCase {
  std::string text;
};

// Print a case as its quoted text: without this gtest dumps the raw bytes,
// string pointer included, and the discovered ctest names change per run.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.text);
}

class IpParseRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(IpParseRoundTrip, ParseThenFormat) {
  auto ip = IpAddress::parse(GetParam().text);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), GetParam().text);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IpParseRoundTrip,
    ::testing::Values(RoundTripCase{"0.0.0.0"}, RoundTripCase{"1.2.3.4"},
                      RoundTripCase{"61.128.0.1"},
                      RoundTripCase{"255.255.255.255"},
                      RoundTripCase{"129.174.10.20"},
                      RoundTripCase{"202.112.0.44"}));

class IpParseRejects : public ::testing::TestWithParam<std::string> {};

TEST_P(IpParseRejects, MalformedInput) {
  EXPECT_FALSE(IpAddress::parse(GetParam()).has_value());
}

INSTANTIATE_TEST_SUITE_P(Cases, IpParseRejects,
                         ::testing::Values("", "1.2.3", "256.1.1.1",
                                           "1.2.3.4.5", "a.b.c.d",
                                           "1.2.3.999"));

TEST(IpAddressTest, Ordering) {
  EXPECT_LT(IpAddress(1, 0, 0, 0), IpAddress(2, 0, 0, 0));
  EXPECT_EQ(IpAddress(9, 9, 9, 9), IpAddress(9, 9, 9, 9));
}

TEST(IpAddressTest, HashSpreadsSequentialAddresses) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<IpAddress>{}(IpAddress(0x0A000000u + i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions in a tiny dense range
}

TEST(PrefixTest, MaskValues) {
  EXPECT_EQ(Prefix::mask(0), 0u);
  EXPECT_EQ(Prefix::mask(8), 0xFF000000u);
  EXPECT_EQ(Prefix::mask(16), 0xFFFF0000u);
  EXPECT_EQ(Prefix::mask(32), 0xFFFFFFFFu);
}

TEST(PrefixTest, NetworkMaskedOnConstruction) {
  Prefix p(IpAddress(10, 1, 2, 3), 8);
  EXPECT_EQ(p.network(), IpAddress(10, 0, 0, 0));
  EXPECT_EQ(p.length(), 8);
}

TEST(PrefixTest, Contains) {
  Prefix p(IpAddress(61, 128, 0, 0), 10);
  EXPECT_TRUE(p.contains(IpAddress(61, 128, 0, 1)));
  EXPECT_TRUE(p.contains(IpAddress(61, 191, 255, 255)));
  EXPECT_FALSE(p.contains(IpAddress(61, 192, 0, 0)));
  EXPECT_FALSE(p.contains(IpAddress(62, 128, 0, 1)));
}

TEST(PrefixTest, ZeroLengthContainsEverything) {
  Prefix p(IpAddress(1, 2, 3, 4), 0);
  EXPECT_TRUE(p.contains(IpAddress(255, 255, 255, 255)));
  EXPECT_TRUE(p.contains(IpAddress()));
}

TEST(PrefixTest, SizeIsPowerOfTwo) {
  EXPECT_EQ(Prefix(IpAddress(10, 0, 0, 0), 8).size(), 1u << 24);
  EXPECT_EQ(Prefix(IpAddress(10, 0, 0, 0), 32).size(), 1u);
  EXPECT_EQ(Prefix(IpAddress(10, 0, 0, 0), 16).size(), 65536u);
}

TEST(PrefixTest, ToString) {
  EXPECT_EQ(Prefix(IpAddress(202, 112, 0, 0), 13).to_string(),
            "202.112.0.0/13");
}

}  // namespace
}  // namespace ppsim::net
