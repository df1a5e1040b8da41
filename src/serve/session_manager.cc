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

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)) {}

uint64_t SessionManager::DrawRngSeed(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = streams_.find(session_id);
  if (it != streams_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(session_id);
    it = streams_
             .emplace(session_id,
                      Stream{Rng(SessionSeed(options_.seed, session_id)),
                             lru_.begin()})
             .first;
    created_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t seed = it->second.rng.Next();
  while (streams_.size() > options_.max_sessions) {
    streams_.erase(lru_.back());
    lru_.pop_back();
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  return seed;
}

size_t SessionManager::live_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.size();
}

}  // namespace muve::serve
