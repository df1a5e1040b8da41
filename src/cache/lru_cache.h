#ifndef MUVE_CACHE_LRU_CACHE_H_
#define MUVE_CACHE_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "cache/stats.h"

namespace muve::cache {

/// Capacity-bounded, thread-safe LRU map: MUVE's compiled-plan memo.
///
/// Semantics:
///  - `Get` copies the value out and refreshes the entry's recency;
///    `GetIf` does so only for an entry its predicate accepts.
///  - `Put` inserts or overwrites, evicting the least recently used entry
///    once `capacity` is exceeded.
///  - Capacity 0 is the disabled cache: `Put` is a no-op and `Get` always
///    misses, so callers fall through to the exact uncached path without
///    a separate code branch.
///
/// All operations take one internal mutex, so a cache may be shared by
/// concurrent callers. Each cache counts its own hits, misses and
/// evictions.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  bool enabled() const { return capacity_ > 0; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// On a hit, copies the cached value into `*out`, marks the entry most
  /// recently used, and returns true. Every call counts a hit or a miss.
  bool Get(const Key& key, Value* out) {
    return GetIf(key, [](const Value&) { return true; }, out);
  }

  /// As Get, but an entry for which `accept(value)` is false counts as a
  /// miss and stays in place for a later Put to overwrite.
  template <typename Accept>
  bool GetIf(const Key& key, const Accept& accept, Value* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end() || !accept(it->second->second)) {
      stats_.RecordMiss();
      return false;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    *out = entries_.front().second;
    stats_.RecordHit();
    return true;
  }

  /// Inserts or overwrites `key`, making it the most recent entry and
  /// evicting from the LRU end beyond capacity. No-op when disabled.
  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      stats_.RecordEvictions(1);
    }
  }

  StatsSnapshot stats() const { return stats_.Snapshot(); }

 private:
  const size_t capacity_;
  Stats stats_;
  mutable std::mutex mutex_;
  /// Front = most recently used. `index_` maps key -> list node.
  std::list<std::pair<Key, Value>> entries_;
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
};

}  // namespace muve::cache

#endif  // MUVE_CACHE_LRU_CACHE_H_
