// Tests for the sharded LRU cache that bounds the serving layer's memory.

#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace tegra {
namespace {

TEST(ShardedLruCacheTest, PutGetRoundTrip) {
  ShardedLruCache<int, std::string> cache(/*capacity=*/8, /*num_shards=*/2);
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_TRUE(cache.Get(1).has_value());
  EXPECT_EQ(*cache.Get(1), "one");
  EXPECT_EQ(*cache.Get(2), "two");
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(ShardedLruCacheTest, PutOverwritesExistingKey) {
  ShardedLruCache<int, int> cache(4);
  cache.Put(7, 1);
  cache.Put(7, 2);
  EXPECT_EQ(*cache.Get(7), 2);
  EXPECT_EQ(cache.Size(), 1u);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  // Single shard makes the eviction order deterministic.
  ShardedLruCache<int, int> cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  // Touch 1 so that 2 becomes the LRU entry.
  EXPECT_TRUE(cache.Get(1).has_value());
  cache.Put(4, 40);  // Evicts 2.
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ShardedLruCacheTest, SizeNeverExceedsCapacityPlusShardRounding) {
  const size_t capacity = 64;
  const size_t shards = 8;
  ShardedLruCache<int, int> cache(capacity, shards);
  for (int i = 0; i < 10000; ++i) cache.Put(i, i);
  // Per-shard budget is ceil(64/8) = 8, so the hard bound is 64 exactly.
  EXPECT_LE(cache.Size(), capacity);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ShardedLruCacheTest, ZeroCapacityDisablesCaching) {
  ShardedLruCache<int, int> cache(0);
  cache.Put(1, 1);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.Size(), 0u);
  int computes = 0;
  EXPECT_EQ(cache.GetOrCompute(1, [&] {
    ++computes;
    return 42;
  }),
            42);
  EXPECT_EQ(cache.GetOrCompute(1, [&] {
    ++computes;
    return 42;
  }),
            42);
  EXPECT_EQ(computes, 2);  // Every call recomputes.
}

TEST(ShardedLruCacheTest, GetOrComputeCachesTheFirstResult) {
  ShardedLruCache<int, int> cache(16);
  std::atomic<int> computes{0};
  auto compute = [&] {
    computes.fetch_add(1);
    return 99;
  };
  EXPECT_EQ(cache.GetOrCompute(5, compute), 99);
  EXPECT_EQ(cache.GetOrCompute(5, compute), 99);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ShardedLruCacheTest, StatsSnapshotReflectsCounters) {
  ShardedLruCache<int, int> cache(2, 1);
  cache.Put(1, 1);
  (void)cache.Get(1);  // hit
  (void)cache.Get(9);  // miss
  const LruCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(ShardedLruCacheTest, ShardCountIsClampedToCapacity) {
  ShardedLruCache<int, int> cache(/*capacity=*/2, /*num_shards=*/64);
  EXPECT_LE(cache.num_shards(), 2u);
  for (int i = 0; i < 100; ++i) cache.Put(i, i);
  EXPECT_LE(cache.Size(), 2u);
}

TEST(ShardedLruCacheTest, ClearEmptiesEveryShard) {
  ShardedLruCache<int, int> cache(32, 4);
  for (int i = 0; i < 20; ++i) cache.Put(i, i);
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_FALSE(cache.Get(3).has_value());
}

TEST(ShardedLruCacheTest, ConcurrentMixedWorkloadStaysBoundedAndConsistent) {
  const size_t capacity = 256;
  ShardedLruCache<int, int> cache(capacity, 8);
  std::vector<std::thread> threads;
  std::atomic<bool> wrong_value{false};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        const int key = (t * 131 + i) % 1024;
        const int got = cache.GetOrCompute(key, [&] { return key * 3; });
        if (got != key * 3) wrong_value.store(true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(wrong_value.load());
  EXPECT_LE(cache.Size(), capacity);
  EXPECT_EQ(cache.hits() + cache.misses(), 8u * 5000u);
}

}  // namespace
}  // namespace tegra
