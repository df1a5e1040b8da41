#ifndef MUVE_CACHE_STATS_H_
#define MUVE_CACHE_STATS_H_

#include <atomic>
#include <cstdint>

namespace muve::cache {

/// Plain-value copy of a cache's counters, safe to aggregate and compare.
struct StatsSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Unused; kept until the next benchmark change removes perfbench's
  /// reference.
  uint64_t invalidations = 0;

  uint64_t lookups() const { return hits + misses; }

  /// Fraction of lookups served from the cache (0 when never looked up).
  double hit_rate() const;
};

/// Thread-safe hit/miss/eviction counters of one cache. Counters
/// use relaxed atomics: they are monotonic tallies, never used to
/// synchronize cached data (the cache's own mutex does that), so total
/// ordering against cache contents is not required — only that every
/// operation is counted exactly once.
class Stats {
 public:
  Stats() = default;
  Stats(const Stats&) = delete;
  Stats& operator=(const Stats&) = delete;

  void RecordHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void RecordMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }
  void RecordEvictions(uint64_t n) {
    evictions_.fetch_add(n, std::memory_order_relaxed);
  }

  StatsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace muve::cache

#endif  // MUVE_CACHE_STATS_H_
