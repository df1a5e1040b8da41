#ifndef MUVE_SERVE_SESSION_MANAGER_H_
#define MUVE_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "db/relation.h"
#include "muve/muve_engine.h"

namespace muve::serve {

/// Engine options tuned for multi-session serving: each session runs
/// the exact serial pipeline (num_threads = 1) so parallelism comes
/// from concurrent requests across server workers, not from nested
/// per-session pools — N sessions × M pool threads would oversubscribe
/// the machine long before the admission queue pushes back.
inline MuveOptions ServingEngineDefaults() {
  MuveOptions options;
  options.execution.num_threads = 1;
  return options;
}

struct SessionManagerOptions {
  /// Live-session capacity: beyond it, the least recently used *idle*
  /// session (no request currently pinning it) is evicted, dropping its
  /// caches. Pinned sessions are never evicted; the manager temporarily
  /// overflows instead of blocking dispatch.
  size_t max_sessions = 64;
  /// Template for every session engine (same table, same knobs; the
  /// session-scoped caches inside are what differ per session).
  MuveOptions engine = ServingEngineDefaults();
  /// Base seed for per-session voice-noise RNG streams; a session's
  /// stream is derived from this and its id, so a replayed workload
  /// reproduces bit-identically per session.
  uint64_t seed = 0x5EEDF00DULL;
};

/// Owns per-session serving state — one MuveEngine (whose two session
/// caches, phonetic candidates and the plan memo, are thereby
/// session-scoped) and one voice-noise RNG per session id — with LRU
/// eviction of idle sessions at capacity.
///
/// Acquire() hands out RAII-pinned handles: a pinned session is in use
/// by an in-flight request and exempt from eviction; the shared_ptr
/// inside the handle additionally keeps the object alive even if an
/// eviction races the pin. All methods are thread-safe.
class SessionManager {
 public:
  struct Session {
    Session(std::string session_id,
            std::shared_ptr<const db::Relation> relation,
            const MuveOptions& options, uint64_t rng_seed)
        : id(std::move(session_id)),
          engine(std::move(relation), options),
          rng(rng_seed) {}

    const std::string id;
    MuveEngine engine;

    /// Draws a per-request RNG seed from the session's voice-noise
    /// stream. Concurrent requests of one session each get their own
    /// derived Rng rather than racing on a shared stream; with requests
    /// processed in submission order (e.g. one worker) the derived
    /// seeds — and thus the noise — replay deterministically.
    uint64_t DrawRngSeed() {
      std::lock_guard<std::mutex> lock(rng_mutex);
      return rng.Next();
    }

    /// Requests currently executing against this session.
    std::atomic<uint64_t> pins{0};
    /// Requests this session has served (completed or failed).
    std::atomic<uint64_t> queries_served{0};

   private:
    std::mutex rng_mutex;
    Rng rng;
  };

  /// Move-only RAII pin on a session; unpins on destruction.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept
        : session_(std::move(other.session_)) {}
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Release();
        session_ = std::move(other.session_);
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Release(); }

    explicit operator bool() const { return session_ != nullptr; }
    Session* operator->() const { return session_.get(); }
    Session& operator*() const { return *session_; }
    Session* get() const { return session_.get(); }

   private:
    friend class SessionManager;
    explicit Handle(std::shared_ptr<Session> session)
        : session_(std::move(session)) {
      if (session_) session_->pins.fetch_add(1, std::memory_order_relaxed);
    }
    void Release() {
      if (session_) {
        session_->pins.fetch_sub(1, std::memory_order_relaxed);
        session_.reset();
      }
    }
    std::shared_ptr<Session> session_;
  };

  /// Every session engine serves `relation`, single or sharded.
  SessionManager(std::shared_ptr<const db::Relation> relation,
                 SessionManagerOptions options = {});

  /// Returns a pinned handle for `session_id`, creating the session on
  /// first use (which may evict the least recently used idle session at
  /// capacity) and marking it most recently used either way.
  Handle Acquire(const std::string& session_id);

  /// Sessions currently live (may transiently exceed max_sessions when
  /// every candidate for eviction is pinned).
  size_t live_sessions() const;

  /// Sums the per-session pipeline cache counters over live sessions
  /// (an evicted session's counters leave with it). Safe concurrent
  /// with serving; the counters themselves are monotonic atomics.
  PipelineCacheStats AggregateCacheStats() const;

  uint64_t sessions_created() const {
    return created_.load(std::memory_order_relaxed);
  }
  uint64_t sessions_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  const SessionManagerOptions& options() const { return options_; }

 private:
  /// Evicts LRU idle sessions until size <= max_sessions or only pinned
  /// sessions remain. Caller holds mutex_.
  void EvictIdleLocked();

  struct Slot {
    std::shared_ptr<Session> session;
    std::list<std::string>::iterator lru_it;
  };

  const std::shared_ptr<const db::Relation> relation_;
  const SessionManagerOptions options_;
  mutable std::mutex mutex_;
  /// Front = most recently used session id.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Slot> sessions_;
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> evicted_{0};
};

}  // namespace muve::serve

#endif  // MUVE_SERVE_SESSION_MANAGER_H_
