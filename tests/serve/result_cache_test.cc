// ServeResultCache: LRU eviction order, snapshot-version invalidation,
// exclusion-fingerprint keying, and concurrent access.

#include "serve/result_cache.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ganc {
namespace {

ServeResultCache::Key Key(UserId user, int32_t n = 5, uint64_t fp = 0,
                          uint64_t version = 1) {
  return ServeResultCache::Key{user, n, fp, version};
}

std::vector<ItemId> List(std::initializer_list<ItemId> items) {
  return std::vector<ItemId>(items);
}

TEST(ServeResultCacheTest, InsertLookupRoundTrip) {
  ServeResultCache cache(16);
  const std::vector<ItemId> items = List({3, 1, 9});
  cache.Insert(Key(7), items);
  std::vector<ItemId> out;
  ASSERT_TRUE(cache.Lookup(Key(7), &out));
  EXPECT_EQ(out, items);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeResultCacheTest, MissOnUnknownKeyLeavesOutputUntouched) {
  ServeResultCache cache(16);
  std::vector<ItemId> out = List({42});
  EXPECT_FALSE(cache.Lookup(Key(1), &out));
  EXPECT_EQ(out, List({42}));
}

TEST(ServeResultCacheTest, EveryKeyFieldDiscriminates) {
  ServeResultCache cache(64);
  cache.Insert(Key(1, 5, 10, 1), List({1}));
  std::vector<ItemId> out;
  EXPECT_TRUE(cache.Lookup(Key(1, 5, 10, 1), &out));
  EXPECT_FALSE(cache.Lookup(Key(2, 5, 10, 1), &out));  // other user
  EXPECT_FALSE(cache.Lookup(Key(1, 6, 10, 1), &out));  // other n
  EXPECT_FALSE(cache.Lookup(Key(1, 5, 11, 1), &out));  // other exclusions
  EXPECT_FALSE(cache.Lookup(Key(1, 5, 10, 2), &out));  // other snapshot
}

TEST(ServeResultCacheTest, SnapshotVersionInvalidatesWholeCache) {
  ServeResultCache cache(64);
  for (UserId u = 0; u < 10; ++u) {
    cache.Insert(Key(u, 5, 0, /*version=*/1), List({u}));
  }
  // A snapshot swap bumps the version: every lookup under v2 misses even
  // though (user, n, fp) coincide.
  std::vector<ItemId> out;
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_FALSE(cache.Lookup(Key(u, 5, 0, /*version=*/2), &out));
  }
  // Clear() is the eager variant.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(3, 5, 0, 1), &out));
}

TEST(ServeResultCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is global and assertable.
  ServeResultCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Insert(Key(1), List({1}));
  cache.Insert(Key(2), List({2}));
  cache.Insert(Key(3), List({3}));
  // Touch 1 so 2 becomes the LRU tail.
  std::vector<ItemId> out;
  ASSERT_TRUE(cache.Lookup(Key(1), &out));
  cache.Insert(Key(4), List({4}));
  EXPECT_TRUE(cache.Lookup(Key(1), &out));
  EXPECT_FALSE(cache.Lookup(Key(2), &out));  // evicted
  EXPECT_TRUE(cache.Lookup(Key(3), &out));
  EXPECT_TRUE(cache.Lookup(Key(4), &out));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ServeResultCacheTest, ReinsertRefreshesValueWithoutGrowth) {
  ServeResultCache cache(4, 1);
  cache.Insert(Key(1), List({1, 2}));
  cache.Insert(Key(1), List({9}));
  std::vector<ItemId> out;
  ASSERT_TRUE(cache.Lookup(Key(1), &out));
  EXPECT_EQ(out, List({9}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeResultCacheTest, ExclusionFingerprintIsOrderInsensitiveBySorting) {
  const std::vector<ItemId> a = {2, 5, 9};
  EXPECT_EQ(ExclusionFingerprint(a), ExclusionFingerprint(a));
  const std::vector<ItemId> b = {2, 5, 8};
  EXPECT_NE(ExclusionFingerprint(a), ExclusionFingerprint(b));
  EXPECT_NE(ExclusionFingerprint(a), ExclusionFingerprint({}));
}

TEST(ServeResultCacheTest, ConcurrentMixedTrafficStaysConsistent) {
  ServeResultCache cache(128, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<ItemId> out;
      for (int round = 0; round < 2000; ++round) {
        const UserId u = static_cast<UserId>((t * 31 + round) % 64);
        if (cache.Lookup(Key(u), &out)) {
          // A hit must return what some thread inserted for this user.
          ASSERT_EQ(out.size(), 1u);
          ASSERT_EQ(out[0], u);
        } else {
          cache.Insert(Key(u), List({u}));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 128u);
}

}  // namespace
}  // namespace ganc
