#ifndef MUVE_SERVE_SESSION_MANAGER_H_
#define MUVE_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"

namespace muve::serve {

struct SessionManagerOptions {
  /// Live-session capacity: beyond it, the least recently used session's
  /// voice-noise stream is dropped. A dropped stream restarts from its
  /// (seed, id) origin when the session returns.
  size_t max_sessions = 64;
  /// Base seed for per-session voice-noise RNG streams; a session's
  /// stream is derived from this and its id, so a replayed workload
  /// reproduces bit-identically per session.
  uint64_t seed = 0x5EEDF00DULL;
};

/// The per-session serving state: one voice-noise RNG stream per
/// session id, LRU-bounded by `max_sessions`. Everything else a request
/// touches — the schema index, the plan memo, the execution engine — is
/// shared by every session through the server's one MuveEngine, because
/// the pipeline's answers depend only on the table and the transcript.
/// All methods are thread-safe.
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});

  /// Draws the next per-request RNG seed from `session_id`'s voice-noise
  /// stream, creating the stream on first use (which may drop the least
  /// recently used stream at capacity). Concurrent requests of one
  /// session each get their own derived Rng rather than racing on a
  /// shared stream; with requests processed in submission order (e.g.
  /// one worker) the derived seeds — and thus the noise — replay
  /// deterministically.
  uint64_t DrawRngSeed(const std::string& session_id);

  /// Sessions whose stream is currently live (at most max_sessions).
  size_t live_sessions() const;

  uint64_t sessions_created() const {
    return created_.load(std::memory_order_relaxed);
  }
  uint64_t sessions_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

 private:
  struct Stream {
    Rng rng;
    std::list<std::string>::iterator lru_it;
  };

  const SessionManagerOptions options_;
  mutable std::mutex mutex_;
  /// Front = most recently used session id.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Stream> streams_;
  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> evicted_{0};
};

}  // namespace muve::serve

#endif  // MUVE_SERVE_SESSION_MANAGER_H_
