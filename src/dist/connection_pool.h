#ifndef MUVE_DIST_CONNECTION_POOL_H_
#define MUVE_DIST_CONNECTION_POOL_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/strings.h"
#include "net/connection.h"

namespace muve::dist {

/// One downstream address (dotted-quad IPv4 or "localhost").
struct Endpoint {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return StrCat({host, ":", std::to_string(port)});
  }
};

/// Fixed-size pool of non-blocking connections to one endpoint.
/// Acquire pops an idle connection or dials a new one (bounded by the
/// connect timeout and the caller's deadline — never the kernel's
/// minutes-long default); Release returns a connection whose framing
/// state is clean, keeping at most `max_idle`. A connection that sent a
/// request and did not read the full response must be closed, not
/// released — the pool never hands out a dirty byte stream.
///
/// Thread-safe: coordinator gathers running on different serving threads
/// share one pool per downstream.
class ConnectionPool {
 public:
  ConnectionPool(Endpoint endpoint, size_t max_idle,
                 double connect_timeout_ms)
      : endpoint_(std::move(endpoint)),
        max_idle_(max_idle),
        connect_timeout_ms_(connect_timeout_ms) {}

  /// An idle connection, or a fresh one. The dial is bounded by
  /// min(connect timeout, remaining deadline).
  Result<net::Connection> Acquire(const Deadline& deadline) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        net::Connection conn = std::move(idle_.back());
        idle_.pop_back();
        return conn;
      }
    }
    double budget = connect_timeout_ms_;
    if (deadline.IsFinite()) {
      budget = std::min(budget, deadline.RemainingMillis());
      if (budget <= 0.0) {
        return Status::Timeout("no budget left to dial " +
                               endpoint_.ToString());
      }
    }
    return net::Connection::Connect(endpoint_.host, endpoint_.port, budget);
  }

  /// Returns a clean connection for reuse; drops it when the idle list
  /// is full or the connection died in flight.
  void Release(net::Connection conn) {
    if (!conn.connected()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (idle_.size() < max_idle_) idle_.push_back(std::move(conn));
    // else: conn destructs -> closed.
  }

  /// Closes every idle connection (e.g. after ejecting the downstream,
  /// so a recovered peer starts from fresh sockets).
  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.clear();
  }

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  const Endpoint endpoint_;
  const size_t max_idle_;
  const double connect_timeout_ms_;
  mutable std::mutex mutex_;
  std::vector<net::Connection> idle_;
};

}  // namespace muve::dist

#endif  // MUVE_DIST_CONNECTION_POOL_H_
