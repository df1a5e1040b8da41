// Unit tests for the session caching subsystem (src/cache/): LRU
// recency/eviction semantics, the capacity-0 disabled path, and counter
// consistency under concurrent ThreadPool use.

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "cache/stats.h"
#include "common/thread_pool.h"

namespace muve {
namespace {

using cache::LruCache;
using cache::StatsSnapshot;

// ---------------------------------------------------------------------
// LruCache
// ---------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsedInOrder) {
  LruCache<std::string, int> cache(3);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("c", 3);

  // Touch "a" so "b" becomes the LRU entry.
  int out = 0;
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_EQ(out, 1);

  cache.Put("d", 4);  // Evicts "b".
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_TRUE(cache.Get("c", &out));
  EXPECT_TRUE(cache.Get("d", &out));

  // Next eviction order follows recency: "a" (then "c", "d").
  cache.Put("e", 5);
  EXPECT_FALSE(cache.Get("a", &out));
  EXPECT_TRUE(cache.Get("c", &out));

  const StatsSnapshot stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.misses, 2u);  // "b" and "a" after their evictions.
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.lookups(), 7u);
}

TEST(LruCacheTest, OverwriteRefreshesRecencyWithoutGrowing) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("a", 10);  // Overwrite: "b" is now LRU.
  EXPECT_EQ(cache.size(), 2u);
  cache.Put("c", 3);  // Evicts "b".
  int out = 0;
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_EQ(out, 10);
}

TEST(LruCacheTest, CapacityZeroBypassesEverything) {
  LruCache<std::string, int> cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put("a", 1);
  EXPECT_EQ(cache.size(), 0u);
  int out = 7;
  EXPECT_FALSE(cache.Get("a", &out));
  EXPECT_EQ(out, 7);  // Untouched on miss.
  const StatsSnapshot stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(LruCacheTest, CapacityOneThrashesButStaysCorrect) {
  LruCache<int, int> cache(1);
  for (int i = 0; i < 10; ++i) {
    cache.Put(i, i * i);
    int out = 0;
    ASSERT_TRUE(cache.Get(i, &out));
    EXPECT_EQ(out, i * i);
    if (i > 0) {
      EXPECT_FALSE(cache.Get(i - 1, &out));
    }
    EXPECT_EQ(cache.size(), 1u);
  }
  EXPECT_EQ(cache.stats().evictions, 9u);
}

// ---------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------

TEST(CacheConcurrencyTest, CountersConsistentUnderThreadPool) {
  ThreadPool pool(8);
  LruCache<int, int> cache(64);
  constexpr int kTasks = 16;
  constexpr int kOpsPerTask = 2000;

  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([t, &cache, &observed_hits] {
      uint64_t hits = 0;
      for (int i = 0; i < kOpsPerTask; ++i) {
        const int key = (t * 31 + i * 17) % 96;  // Overlapping key space.
        int out = 0;
        if (cache.Get(key, &out)) {
          ++hits;
          EXPECT_EQ(out, key * 3);  // Values are a function of the key.
        } else {
          cache.Put(key, key * 3);
        }
      }
      observed_hits.fetch_add(hits, std::memory_order_relaxed);
    }));
  }
  for (auto& future : futures) future.get();

  const StatsSnapshot stats = cache.stats();
  EXPECT_EQ(stats.lookups(),
            static_cast<uint64_t>(kTasks) * kOpsPerTask);
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace muve
