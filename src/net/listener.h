#ifndef MUVE_NET_LISTENER_H_
#define MUVE_NET_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "serve/server.h"

namespace muve::net {

/// Answers kPartialQuery frames — the shard-server execution mode. A
/// muve_serve process started with --shard_index installs one
/// (dist::ShardService) over its local stripe; a plain server leaves it
/// unset and answers kPartialQuery with an Error frame. Implementations
/// must be safe for concurrent calls (one per connection thread).
class PartialHandler {
 public:
  virtual ~PartialHandler() = default;

  virtual Result<PartialResult> HandlePartial(const PartialQuery& query) = 0;
};

struct ListenerOptions {
  /// TCP port to bind on 0.0.0.0; 0 picks an ephemeral port (read it
  /// back via port()).
  uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 64;
  /// Print "LISTENING port=N" to stdout once the socket is ready — the
  /// handshake scripts (e2e smoke, README quickstart) wait for it.
  bool announce = false;
};

struct ListenerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;
  /// Malformed frames or payloads received (each also answers/closes
  /// with an Error frame where the framing still permits one).
  uint64_t protocol_errors = 0;
};

/// TCP front door for a serve::Server: an accept thread plus one thread
/// per connection, each speaking the length-prefixed frame protocol
/// (protocol.h) serially — one request, one response, in order.
///
/// Each connection is its own serving session ("conn-<n>"), so a
/// connection's voice requests draw from their own noise stream. Its
/// requests share the server's one engine, plan memo included, and
/// inherit the server's admission control, per-tenant quotas, and
/// single-flight coalescing exactly as in-process callers do.
///
/// A malformed payload inside an intact frame answers with an Error
/// frame and keeps the connection; a broken frame stream closes it.
class Listener {
 public:
  /// `server` must outlive the listener. It may be null for a
  /// partial-only shard endpoint (kRequest frames then answer with an
  /// Error frame).
  explicit Listener(serve::Server* server, ListenerOptions options = {});
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens, and starts the accept thread. Fails if the port is
  /// taken or Start was already called.
  Status Start();

  /// The bound port (the chosen one when options.port was 0). 0 before
  /// Start.
  uint16_t port() const { return port_; }

  /// Stops accepting, unblocks and joins every connection thread.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  ListenerStats stats() const;

  /// Installs the kPartialQuery handler (shard-server mode). Must be
  /// called before Start; the handler must outlive the listener.
  void set_partial_handler(PartialHandler* handler) {
    partial_handler_ = handler;
  }

  /// Installs the kStats responder: its return value (a JSON document)
  /// becomes the reply payload. Unset, kStats answers "{}". Must be
  /// called before Start; must be thread-safe.
  void set_stats_provider(std::function<std::string()> provider) {
    stats_provider_ = std::move(provider);
  }

 private:
  void AcceptLoop();
  void ServeConnection(uint64_t conn_id, int fd);
  /// Handles one kRequest frame; returns false when the connection
  /// should close (frame-level protocol violation).
  bool HandleRequest(const std::string& session_id, int fd,
                     const Frame& frame);
  /// Handles one kPartialQuery frame (shard-server mode).
  bool HandlePartialQuery(int fd, const Frame& frame);
  /// Counts a protocol error, then answers it with an Error frame;
  /// returns false when that write fails.
  bool RejectFrame(int fd, const Status& status);

  serve::Server* const server_;
  PartialHandler* partial_handler_ = nullptr;
  std::function<std::string()> stats_provider_;
  const ListenerOptions options_;

  /// Atomic: the accept loop passes it to accept(2) while Shutdown
  /// closes it and writes -1 to unblock that call.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mutex_;
  bool started_ = false;
  bool shutdown_ = false;
  /// Live connection fds by id, so Shutdown can unblock their reads.
  std::unordered_map<uint64_t, int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  uint64_t next_conn_id_ = 0;
  ListenerStats stats_;
};

}  // namespace muve::net

#endif  // MUVE_NET_LISTENER_H_
