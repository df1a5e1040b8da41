#include "serve/session_manager.h"

#include <utility>

namespace muve::serve {
namespace {

/// Stable 64-bit FNV-1a of the session id, mixed with the manager's
/// base seed: a session's voice-noise stream depends only on (seed, id),
/// never on creation order, so evict-and-recreate does not change it.
uint64_t SessionSeed(uint64_t base, const std::string& id) {
  uint64_t hash = 0xCBF29CE484222325ULL ^ base;
  for (const char c : id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

SessionManager::SessionManager(std::shared_ptr<const db::Relation> relation,
                               SessionManagerOptions options)
    : relation_(std::move(relation)), options_(std::move(options)) {}

SessionManager::Handle SessionManager::Acquire(
    const std::string& session_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return Handle(it->second.session);
    }
  }
  // Construct outside the lock: engine construction probes the table
  // (calibration scan) and builds the speech lexicon — holding the
  // manager mutex for that would stall every concurrent Acquire.
  const uint64_t seed = SessionSeed(options_.seed, session_id);
  auto session = std::make_shared<Session>(session_id, relation_,
                                           options_.engine, seed);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) {
    // Another request created the session while we built ours; theirs
    // won (it may already hold cached state), ours is discarded.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return Handle(it->second.session);
  }
  lru_.push_front(session_id);
  sessions_.emplace(session_id, Slot{session, lru_.begin()});
  created_.fetch_add(1, std::memory_order_relaxed);
  // Pin before evicting: when every other session is pinned, the
  // backward walk would otherwise reach — and evict — the session this
  // very call is about to hand out.
  Handle handle(std::move(session));
  EvictIdleLocked();
  return handle;
}

void SessionManager::EvictIdleLocked() {
  if (sessions_.size() <= options_.max_sessions) return;
  // Walk backward from the LRU end, evicting idle sessions and skipping
  // pinned ones (erase returns the successor, so `--it` resumes the
  // backward walk at the predecessor of the erased entry).
  auto it = lru_.end();
  while (sessions_.size() > options_.max_sessions && it != lru_.begin()) {
    --it;
    auto found = sessions_.find(*it);
    if (found == sessions_.end()) {  // Defensive; should not happen.
      it = lru_.erase(it);
      continue;
    }
    if (found->second.session->pins.load(std::memory_order_relaxed) > 0) {
      continue;  // In use by an in-flight request: spare it.
    }
    sessions_.erase(found);
    it = lru_.erase(it);
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t SessionManager::live_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

PipelineCacheStats SessionManager::AggregateCacheStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PipelineCacheStats total;
  for (const auto& [id, slot] : sessions_) {
    const PipelineCacheStats stats = slot.session->engine.cache_stats();
    total.candidates += stats.candidates;
    total.plans += stats.plans;
  }
  return total;
}

}  // namespace muve::serve
