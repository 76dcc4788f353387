// Flat hot-path containers (sim/flat_map.h): open-addressing hash map and
// the sorted-vector ordered map/set. Focus areas: tombstoned erase and
// tombstone reuse, in-place and growing rehash, heterogeneous string_view
// lookup, iteration-order guarantees, and move-only mapped types (the
// unique_ptr-value pattern the telemetry registry relies on).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "sim/flat_map.h"

namespace canal::sim {
namespace {

TEST(FlatHashMap, InsertFindErase) {
  FlatHashMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.find(1), map.end());

  map[1] = "one";
  map[2] = "two";
  auto [it, inserted] = map.try_emplace(3, "three");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "three");
  EXPECT_EQ(map.size(), 3u);

  // try_emplace on an existing key leaves the value untouched.
  auto [again, inserted_again] = map.try_emplace(3, "NOPE");
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again->second, "three");

  EXPECT_EQ(map.find(2)->second, "two");
  EXPECT_EQ(map.erase(2), 1u);
  EXPECT_EQ(map.erase(2), 0u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_FALSE(map.contains(2));
  EXPECT_TRUE(map.contains(1));
  EXPECT_TRUE(map.contains(3));
}

TEST(FlatHashMap, TombstoneKeepsProbeChainIntact) {
  // Erasing a key that sits mid-probe-chain must not cut off keys that
  // probed across it. Load enough colliding keys to force shared chains,
  // erase half, and verify every survivor is still reachable.
  FlatHashMap<int, int> map;
  for (int i = 0; i < 512; ++i) map[i] = i * 10;
  for (int i = 0; i < 512; i += 2) EXPECT_EQ(map.erase(i), 1u);
  EXPECT_EQ(map.size(), 256u);
  for (int i = 1; i < 512; i += 2) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(map.find(i)->second, i * 10);
  }
  for (int i = 0; i < 512; i += 2) EXPECT_FALSE(map.contains(i));
}

TEST(FlatHashMap, TombstoneSlotsAreReusedWithoutGrowth) {
  // Churn (insert+erase of the same keys) must reuse tombstoned slots via
  // the in-place purge rehash rather than growing the table forever.
  FlatHashMap<int, int> map;
  for (int i = 0; i < 64; ++i) map[i] = i;
  map.reserve(64);
  const std::size_t cap = map.bucket_count();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) EXPECT_EQ(map.erase(i), 1u);
    for (int i = 0; i < 64; ++i) map[i] = i + round;
  }
  EXPECT_EQ(map.size(), 64u);
  EXPECT_EQ(map.bucket_count(), cap)
      << "steady churn must not grow the table";
  for (int i = 0; i < 64; ++i) EXPECT_EQ(map.find(i)->second, i + 99);
}

TEST(FlatHashMap, RandomChurnMatchesReference) {
  // Erase returns a slot to empty (with the tombstones before it) when no
  // probe chain can cross it. A small key space in a small table keeps
  // chains long and wrapping, so any wrongly emptied slot would strand a
  // key; every step is checked against a reference map.
  FlatHashMap<int, int> map;
  std::map<int, int> reference;
  std::mt19937 rng(7);
  for (int step = 0; step < 20000; ++step) {
    const int key = static_cast<int>(rng() % 48);
    if (rng() % 2 == 0) {
      map[key] = step;
      reference[key] = step;
    } else {
      EXPECT_EQ(map.erase(key), reference.erase(key)) << step;
    }
    ASSERT_EQ(map.size(), reference.size()) << step;
    if (step % 97 == 0) {
      for (int k = 0; k < 48; ++k) {
        const auto it = reference.find(k);
        const auto found = map.find(k);
        if (it == reference.end()) {
          ASSERT_TRUE(found == map.end()) << "step " << step << " key " << k;
        } else {
          ASSERT_TRUE(found != map.end()) << "step " << step << " key " << k;
          ASSERT_EQ(found->second, it->second);
        }
      }
    }
  }
}

TEST(FlatHashMap, RehashPreservesAllEntries) {
  FlatHashMap<int, int> map;
  const std::size_t initial = map.bucket_count();
  for (int i = 0; i < 10000; ++i) map[i] = i ^ 0x5a5a;
  EXPECT_GT(map.bucket_count(), initial);
  EXPECT_EQ(map.size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(map.find(i)->second, i ^ 0x5a5a);
  }
}

TEST(FlatHashMap, HeterogeneousStringViewLookup) {
  FlatHashMap<std::string, int, StringHash> map;
  map[std::string("alpha")] = 1;
  map[std::string("beta")] = 2;
  // find/contains by string_view: no std::string is materialized.
  const std::string_view alpha("alpha");
  EXPECT_TRUE(map.contains(alpha));
  EXPECT_EQ(map.find(alpha)->second, 1);
  EXPECT_EQ(map.find(std::string_view("beta"))->second, 2);
  EXPECT_FALSE(map.contains(std::string_view("gamma")));
  EXPECT_EQ(map.erase(std::string_view("alpha")), 1u);
  EXPECT_FALSE(map.contains(alpha));
}

TEST(FlatHashMap, MoveOnlyMappedTypeSurvivesRehash) {
  // unique_ptr values must survive growth rehashes with their addresses
  // intact — the stable-handle pattern MetricsRegistry depends on.
  FlatHashMap<int, std::unique_ptr<int>> map;
  map.try_emplace(0);
  map.find(0)->second = std::make_unique<int>(1234);
  int* stable = map.find(0)->second.get();
  for (int i = 1; i < 1000; ++i) {
    map.try_emplace(i);
    map.find(i)->second = std::make_unique<int>(i);
  }
  ASSERT_NE(map.find(0), map.end());
  EXPECT_EQ(map.find(0)->second.get(), stable);
  EXPECT_EQ(*map.find(0)->second, 1234);
}

TEST(FlatHashMap, EraseByIteratorDuringIteration) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  // Tombstoning never moves surviving slots, so erase-then-advance is safe.
  for (auto it = map.begin(); it != map.end();) {
    if (it->first % 2 == 0) {
      auto victim = it;
      ++it;
      map.erase(victim);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(map.size(), 50u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(map.contains(i), i % 2 == 1);
}

TEST(FlatHashMap, ClearThenReuse) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(5));
  map[7] = 70;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(7)->second, 70);
}

TEST(FlatOrderedMap, IteratesInSortedKeyOrder) {
  FlatOrderedMap<int, std::string> map;
  map[30] = "c";
  map[10] = "a";
  map[20] = "b";
  std::vector<int> keys;
  for (const auto& [k, v] : map) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(map.find(20)->second, "b");
  EXPECT_EQ(map.find(25), map.end());
  EXPECT_EQ(map.erase(20), 1u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_FALSE(map.contains(20));
}

TEST(FlatOrderedMap, TryEmplaceKeepsExisting) {
  FlatOrderedMap<int, int> map;
  auto [it, inserted] = map.try_emplace(5, 50);
  EXPECT_TRUE(inserted);
  auto [it2, inserted2] = map.try_emplace(5, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 50);
}

TEST(FlatOrderedSet, SortedUniqueMembership) {
  FlatOrderedSet<int> set;
  EXPECT_TRUE(set.insert(3).second);
  EXPECT_TRUE(set.insert(1).second);
  EXPECT_TRUE(set.insert(2).second);
  EXPECT_FALSE(set.insert(2).second);
  std::vector<int> values(set.begin(), set.end());
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(set.contains(2));
  EXPECT_EQ(set.erase(2), 1u);
  EXPECT_EQ(set.erase(2), 0u);
  EXPECT_FALSE(set.contains(2));
}

}  // namespace
}  // namespace canal::sim
