#include "sim/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace ppsim::sim {
namespace {

template <typename K, typename V>
std::vector<std::pair<K, V>> items(const FlatMap<K, V>& m) {
  return {m.begin(), m.end()};
}

TEST(FlatMapTest, IteratesInKeyOrderAfterOutOfOrderInserts) {
  FlatMap<int, std::string> m;
  for (int k : {5, 1, 9, 3, 7}) m[k] = std::to_string(k);
  EXPECT_EQ(items(m), (std::vector<std::pair<int, std::string>>{
                          {1, "1"}, {3, "3"}, {5, "5"}, {7, "7"}, {9, "9"}}));
  EXPECT_EQ(m.size(), 5u);
}

TEST(FlatMapTest, SubscriptDefaultInsertsMissingKey) {
  FlatMap<int, double> m;
  EXPECT_EQ(m[4], 0.0);
  EXPECT_TRUE(m.contains(4));
  m[4] += 2.5;
  EXPECT_EQ(m.at(4), 2.5);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, EmplaceKeepsExistingEntry) {
  FlatMap<int, std::string> m;
  const auto [first, inserted] = m.emplace(2, "first");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->second, "first");
  const auto [again, inserted_again] = m.emplace(2, "second");
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->second, "first");
  EXPECT_EQ(m.at(2), "first");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, EraseIteratorReturnsNextElement) {
  FlatMap<int, int> m;
  for (int k = 1; k <= 6; ++k) m[k] = k * 10;
  // Erase the even keys while walking, as a timeout sweep does.
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 2 == 0)
      it = m.erase(it);
    else
      ++it;
  }
  EXPECT_EQ(items(m),
            (std::vector<std::pair<int, int>>{{1, 10}, {3, 30}, {5, 50}}));
  const auto after_last = m.erase(m.find(5));
  EXPECT_EQ(after_last, m.end());
}

TEST(FlatMapTest, EraseIfRemovesMatchesAndCountsThem) {
  FlatMap<int, int> m;
  for (int k = 0; k < 10; ++k) m[k] = k % 3;
  EXPECT_EQ(m.erase_if([](const auto& kv) { return kv.second == 0; }), 4u);
  EXPECT_EQ(m.size(), 6u);
  for (const auto& [k, v] : m) EXPECT_NE(v, 0) << k;
}

TEST(FlatMapTest, MissingKey) {
  FlatMap<int, int> m;
  m[1] = 1;
  const FlatMap<int, int>& cm = m;
  EXPECT_EQ(m.find(2), m.end());
  EXPECT_EQ(cm.find(2), cm.end());
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.erase(2), 0u);
  EXPECT_THROW(m.at(2), std::out_of_range);
  EXPECT_THROW(cm.at(2), std::out_of_range);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, MatchesStdMapUnderRandomOperations) {
  // Differential check: the same seeded stream of operations applied to a
  // FlatMap and a std::map must leave identical contents in identical
  // iteration order after every step.
  Rng rng(2024);
  FlatMap<int, int> flat;
  std::map<int, int> ref;
  for (int step = 0; step < 10000; ++step) {
    const int key = static_cast<int>(rng.next_below(64));
    const int value = static_cast<int>(rng.next_below(1000));
    switch (rng.next_below(6)) {
      case 0:
        flat[key] = value;
        ref[key] = value;
        break;
      case 1: {
        const auto [fit, fins] = flat.emplace(key, value);
        const auto [rit, rins] = ref.emplace(key, value);
        ASSERT_EQ(fins, rins);
        ASSERT_EQ(fit->first, rit->first);
        ASSERT_EQ(fit->second, rit->second);
        break;
      }
      case 2:
        ASSERT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 3: {
        auto fit = flat.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (fit != flat.end()) {
          fit = flat.erase(fit);
          rit = ref.erase(rit);
          ASSERT_EQ(fit == flat.end(), rit == ref.end());
          if (fit != flat.end()) {
            ASSERT_EQ(fit->first, rit->first);
          }
        }
        break;
      }
      case 4: {
        const int mod = 2 + static_cast<int>(rng.next_below(7));
        const auto pred = [mod](const auto& kv) {
          return kv.second % mod == 0;
        };
        ASSERT_EQ(flat.erase_if(pred), std::erase_if(ref, pred));
        break;
      }
      default:
        ASSERT_EQ(flat.contains(key), ref.contains(key));
        if (ref.contains(key)) {
          ASSERT_EQ(flat.at(key), ref.at(key));
        }
        break;
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
    ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(), ref.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }))
        << "step " << step;
  }
}

}  // namespace
}  // namespace ppsim::sim
