// Flat hot-path containers (sim/flat_map.h): open-addressing hash map and
// the sorted-vector ordered map/set. Focus areas: tombstoned erase and
// tombstone reuse, in-place and growing rehash, heterogeneous string_view
// lookup, iteration-order guarantees, and move-only mapped types (the
// unique_ptr-value pattern the telemetry registry relies on). Also the
// direct-mapped flow memo (sim/flow_memo.h): growth only on live
// collisions, and hit-for-hit agreement with a full-size table.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "sim/flat_map.h"
#include "sim/flow_memo.h"
#include "tests/testutil.h"

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


// ---- FlowMemo --------------------------------------------------------------

// Identity hash: a key's slot is key mod size, so tests can place
// collisions exactly.
struct IdentityHash {
  std::size_t operator()(std::uint64_t key) const noexcept { return key; }
};
using SmallMemo = FlowMemo<std::uint64_t, int, 64, IdentityHash>;

TEST(FlowMemo, AllocatesSixteenSlotsOnFirstInsert) {
  SmallMemo memo;
  EXPECT_EQ(memo.slot_count(), 0u);
  EXPECT_EQ(memo.find(1, 0), nullptr);
  memo.insert(1, 0, 10);
  EXPECT_EQ(memo.slot_count(), 16u);
  ASSERT_NE(memo.find(1, 0), nullptr);
  EXPECT_EQ(*memo.find(1, 0), 10);
  EXPECT_EQ(memo.find(1, 1), nullptr);  // another epoch never matches
  // An empty slot matches nothing, not even the value-initialized key at
  // epoch 0.
  EXPECT_EQ(memo.find(0, 0), nullptr);
}

TEST(FlowMemo, GrowsOnlyWhileLiveFlowsCollide) {
  SmallMemo memo;
  memo.insert(1, 0, 10);
  memo.insert(17, 0, 170);  // same slot as 1 at 16, not at 32
  EXPECT_EQ(memo.slot_count(), 32u);
  ASSERT_NE(memo.find(1, 0), nullptr);
  ASSERT_NE(memo.find(17, 0), nullptr);
  EXPECT_EQ(*memo.find(1, 0), 10);
  EXPECT_EQ(*memo.find(17, 0), 170);
  // 65 shares 1's slot at every size up to the cap: the memo grows to the
  // cap, then evicts exactly as a full-size table would.
  memo.insert(65, 0, 650);
  EXPECT_EQ(memo.slot_count(), 64u);
  EXPECT_EQ(memo.find(1, 0), nullptr);
  ASSERT_NE(memo.find(65, 0), nullptr);
  ASSERT_NE(memo.find(17, 0), nullptr);
  // At the cap a further collision evicts without growing.
  memo.insert(129, 0, 1290);
  EXPECT_EQ(memo.slot_count(), 64u);
  EXPECT_EQ(memo.find(65, 0), nullptr);
  ASSERT_NE(memo.find(129, 0), nullptr);
}

TEST(FlowMemo, EmptyStaleOrSameKeySlotIsOverwrittenInPlace) {
  SmallMemo memo;
  memo.insert(1, 0, 10);
  // Slot 0 is empty and its value-initialized key is 0 at epoch 0: not a
  // live flow, so 16 takes it without growth.
  memo.insert(16, 0, 160);
  EXPECT_EQ(memo.slot_count(), 16u);
  // The same key overwrites its own entry.
  memo.insert(1, 0, 11);
  EXPECT_EQ(memo.slot_count(), 16u);
  EXPECT_EQ(*memo.find(1, 0), 11);
  // After an epoch bump 1's entry is stale: 17 overwrites it.
  memo.insert(17, 1, 170);
  EXPECT_EQ(memo.slot_count(), 16u);
  EXPECT_EQ(memo.find(1, 1), nullptr);
  EXPECT_EQ(*memo.find(17, 1), 170);
}

TEST(FlowMemo, RehashCarriesOnlyLiveEntries) {
  SmallMemo memo;
  memo.insert(2, 0, 20);
  memo.insert(1, 1, 10);
  memo.insert(17, 1, 170);  // live collision at epoch 1: grows to 32
  EXPECT_EQ(memo.slot_count(), 32u);
  EXPECT_EQ(*memo.find(1, 1), 10);
  EXPECT_EQ(*memo.find(17, 1), 170);
  // Key 2 was written at epoch 0; the rehash dropped it rather than
  // carrying a dead entry into the larger table.
  EXPECT_EQ(memo.find(2, 0), nullptr);
}

TEST(FlowMemo, AgreesWithFullSizeTableOnEveryLookup) {
  // Keys are random 64-bit values, so they spread over all slots; pools
  // from a few flows to far more than 4096 make collisions at the cap
  // certain in the larger ones.
  for (const std::size_t flows : {3u, 8u, 100u, 1000u, 6000u}) {
    std::mt19937_64 rng(flows);
    std::vector<std::uint64_t> pool(flows);
    for (auto& key : pool) key = rng();
    FlowMemo<std::uint64_t, int, 4096> memo;
    testutil::FullSizeFlowTable<std::uint64_t, int> full;
    std::uint64_t epoch = 0;
    std::size_t hits = 0;
    for (std::size_t step = 0; step < 8 * flows + 2000; ++step) {
      if (rng() % 997 == 0) ++epoch;
      const std::uint64_t key = pool[rng() % flows];
      const int* got = memo.find(key, epoch);
      const int* want = full.find(key, epoch);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "flows " << flows << " step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
        ++hits;
      } else {
        const int value = static_cast<int>(step);
        memo.insert(key, epoch, value);
        full.insert(key, epoch, value);
      }
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LE(memo.slot_count(), 4096u);
  }
}

}  // namespace
}  // namespace canal::sim
