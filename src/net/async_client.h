#ifndef MUVE_NET_ASYNC_CLIENT_H_
#define MUVE_NET_ASYNC_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/status.h"
#include "net/protocol.h"

namespace muve::net {

/// Non-blocking client for the frame protocol, built for multiplexed
/// fan-out: the fd stays in O_NONBLOCK mode so a coordinator can poll(2)
/// many clients at once and pump whichever becomes readable, instead of
/// dedicating a blocked thread per downstream.
///
/// Two usage styles:
///  - Blocking-with-deadline: Call(), or Send() then Receive(deadline) —
///    each call polls this one fd internally and returns Status::Timeout
///    when the budget runs out (never hangs; an infinite deadline blocks).
///  - Multiplexed: Send() on several clients, poll their fd()s for
///    POLLIN externally, then PumpReceive() the readable ones until a
///    full frame assembles.
///
/// One logical request in flight per client (the protocol is serial per
/// connection); the receive buffer carries partial frames across pump
/// calls. Movable, not copyable; not thread-safe.
class AsyncClient {
 public:
  AsyncClient() = default;
  ~AsyncClient();

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;
  AsyncClient(AsyncClient&& other) noexcept;
  AsyncClient& operator=(AsyncClient&& other) noexcept;

  /// Connects with a bounded attempt (see net::ConnectFd) and leaves the
  /// fd non-blocking.
  static Result<AsyncClient> Connect(const std::string& host, uint16_t port,
                                     double connect_timeout_ms);

  bool connected() const { return fd_ >= 0; }
  /// The raw fd for external poll(2) sets; -1 when closed.
  int fd() const { return fd_; }

  /// Writes one frame, polling for writability as needed; returns
  /// Status::Timeout when the deadline expires mid-write (the connection
  /// is then in an undefined framing state and is closed).
  Status Send(FrameType type, std::string_view payload,
              const Deadline& deadline);

  /// Non-blocking read pump: consumes whatever the socket has buffered.
  /// Returns true when a complete frame was assembled into `*frame`,
  /// false when more bytes are needed (EAGAIN). EOF and malformed
  /// framing are errors (the peer must not close mid-exchange).
  Result<bool> PumpReceive(Frame* frame);

  /// Blocking receive with a deadline: polls this fd and pumps until a
  /// frame completes or the budget runs out (Status::Timeout).
  Result<Frame> Receive(const Deadline& deadline);

  /// One request/response exchange: Send then Receive under `deadline`.
  /// A kError reply comes back as its decoded Status and leaves the
  /// connection open (the peer answered; the stream is intact); an OK
  /// status inside an error frame is a ParseError. Every other reply
  /// frame is returned for the caller to check its type.
  Result<Frame> Call(FrameType type, std::string_view payload,
                     const Deadline& deadline);

  void Close();

 private:
  explicit AsyncClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  /// Bytes received but not yet consumed as a complete frame.
  std::string inbuf_;
};

}  // namespace muve::net

#endif  // MUVE_NET_ASYNC_CLIENT_H_
