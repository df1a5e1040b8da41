#ifndef MUVE_NET_LISTENER_H_
#define MUVE_NET_LISTENER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "net/connection.h"
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

struct ListenerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_served = 0;
  /// Malformed frames or payloads received (each also answers/closes
  /// with an Error frame where the framing still permits one).
  uint64_t protocol_errors = 0;
};

/// TCP front door for a serve::Server: an accept thread plus one thread
/// per live connection, each serving a net::Connection serially — one
/// request, one response, in order. A connection's thread is joined once
/// it ends (by the next connection to end, or by Shutdown), so threads
/// and their stacks are bounded by the live connections. An accept(2)
/// failure (fd table full, no buffers, an aborted handshake) backs off
/// and retries: only Shutdown ends the accept loop.
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
  /// Error frame). `port` is the TCP port to bind on 0.0.0.0; 0 picks an
  /// ephemeral port (read it back via port()).
  explicit Listener(serve::Server* server, uint16_t port = 0);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens, and starts the accept thread. Fails if the port is
  /// taken, or Start or Shutdown was already called.
  Status Start();

  /// The bound port (the chosen one when constructed with 0). 0 before
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
  /// A live connection: its fd (so Shutdown can unblock it) and the
  /// thread serving it.
  struct Live {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(uint64_t conn_id, Connection conn);
  /// Answers one frame; returns false when the connection should close.
  bool ServeFrame(const std::string& session_id, Connection& conn,
                  const Frame& frame);
  /// Handles one kRequest frame.
  bool HandleRequest(const std::string& session_id, Connection& conn,
                     const Frame& frame);
  /// Handles one kPartialQuery frame (shard-server mode).
  bool HandlePartialQuery(Connection& conn, const Frame& frame);
  /// Counts a protocol error, then answers it with an Error frame;
  /// returns false when that write fails.
  bool RejectFrame(Connection& conn, const Status& status);
  void CountProtocolError();
  /// Ends a connection: takes it out of the live set under the mutex,
  /// only then closes its fd (so Shutdown never shuts down a reused fd
  /// number), and joins the connection thread that ended before it.
  void Retire(uint64_t conn_id, Connection& conn);

  serve::Server* const server_;
  PartialHandler* partial_handler_ = nullptr;
  std::function<std::string()> stats_provider_;
  const uint16_t requested_port_;

  /// Written by Start before the accept thread exists and by Shutdown
  /// after joining it; in between both threads only read it.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mutex_;
  /// Signalled whenever a connection leaves live_.
  std::condition_variable retired_;
  bool started_ = false;
  bool shutdown_ = false;
  std::unordered_map<uint64_t, Live> live_;
  /// The thread of the connection that ended last. It is joined by the
  /// next connection to end, or by Shutdown.
  std::thread finished_;
  uint64_t next_conn_id_ = 0;
  ListenerStats stats_;
};

}  // namespace muve::net

#endif  // MUVE_NET_LISTENER_H_
