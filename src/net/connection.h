#ifndef MUVE_NET_CONNECTION_H_
#define MUVE_NET_CONNECTION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/status.h"
#include "net/protocol.h"

namespace muve::net {

/// One framed TCP connection, and the only code that reads or writes a
/// frame: clients dial with Connect, the Listener adopts each accepted
/// fd. The fd stays in O_NONBLOCK mode so a coordinator can poll(2) many
/// connections at once and pump whichever becomes readable, instead of
/// dedicating a blocked thread per downstream.
///
/// Two usage styles:
///  - Blocking-with-deadline: Call(), or Send() then Receive(deadline) —
///    each call polls this one fd internally and returns Status::Timeout
///    when the budget runs out (never hangs; an infinite deadline blocks).
///  - Multiplexed: Send() on several connections, poll their fd()s for
///    POLLIN externally, then PumpReceive() the readable ones until a
///    full frame assembles.
///
/// A failed Send or Receive breaks the connection: connected() turns
/// false and later calls fail, but the fd stays open until Close() or
/// destruction, so its owner decides when the fd number is released.
///
/// One logical request in flight per connection (the protocol is serial
/// per connection); the receive buffer carries partial frames across
/// pump calls. Movable, not copyable; not thread-safe.
class Connection {
 public:
  Connection() = default;
  /// Adopts a connected socket already in O_NONBLOCK mode.
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;

  /// Opens a TCP connection (TCP_NODELAY) to host:port; host is a
  /// dotted-quad IPv4 address or "localhost" (no DNS). The connect runs
  /// non-blocking and is polled until writable: `connect_timeout_ms > 0`
  /// bounds the wait, so an unresponsive peer (SYN black hole, saturated
  /// backlog) yields Status::Timeout instead of the kernel's
  /// minutes-long default; `<= 0` waits without a bound.
  static Result<Connection> Connect(const std::string& host, uint16_t port,
                                    double connect_timeout_ms);

  bool connected() const { return fd_ >= 0 && !broken_; }
  /// The raw fd for external poll(2) sets; -1 when closed.
  int fd() const { return fd_; }
  /// True once a receive failed because the peer closed the connection
  /// at a frame boundary: the orderly end of a stream. A close mid-frame
  /// is a broken stream and leaves this false.
  bool peer_closed() const { return peer_closed_; }

  /// Writes one frame, polling for writability as needed; returns
  /// Status::Timeout when the deadline expires mid-write (the connection
  /// is then in an undefined framing state and is broken).
  Status Send(FrameType type, std::string_view payload,
              const Deadline& deadline);

  /// Non-blocking read pump: consumes whatever the socket has buffered.
  /// Returns true when a complete frame was assembled into `*frame`,
  /// false when more bytes are needed (EAGAIN). EOF (see peer_closed())
  /// and malformed framing are errors.
  Result<bool> PumpReceive(Frame* frame);

  /// Blocking receive with a deadline: polls this fd and pumps until a
  /// frame completes or the budget runs out (Status::Timeout).
  Result<Frame> Receive(const Deadline& deadline);

  /// One request/response exchange: Send then Receive under `deadline`.
  /// A kError reply comes back as the peer's Status (ParseErrorPayload)
  /// and leaves the connection open (the peer answered; the stream is
  /// intact). Every other reply frame is returned for the caller to
  /// check its type.
  Result<Frame> Call(FrameType type, std::string_view payload,
                     const Deadline& deadline);

  void Close();

 private:
  /// Breaks the connection and returns `status`.
  Status Fail(Status status);

  int fd_ = -1;
  bool broken_ = false;
  bool peer_closed_ = false;
  /// Bytes received but not yet consumed as a complete frame.
  std::string inbuf_;
};

}  // namespace muve::net

#endif  // MUVE_NET_CONNECTION_H_
