#include "net/connection.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/strings.h"

namespace muve::net {

namespace {

Status Errno(std::string_view what) {
  return Status::Internal(StrCat({what, " failed: ", std::strerror(errno)}));
}

/// poll(2) timeout for the remaining deadline budget: at least 1ms while
/// budget remains (so a sub-millisecond remainder still polls instead of
/// busy-spinning), -1 (infinite) for an infinite deadline.
int PollTimeout(const Deadline& deadline) {
  if (!deadline.IsFinite()) return -1;
  const double remaining = deadline.RemainingMillis();
  if (remaining <= 0.0) return 0;
  return static_cast<int>(std::ceil(std::min(remaining, 3600000.0)));
}

/// Waits until `fd` is ready for `events` or the deadline expires. True
/// when poll(2) reported the fd ready; false after an interrupted or
/// timed-out wait, which the caller retries (Await itself returns
/// Status::Timeout once the budget is gone).
Result<bool> Await(int fd, short events, const Deadline& deadline,
                   std::string_view what) {
  if (deadline.Expired()) return Status::Timeout(StrCat({what, " timed out"}));
  pollfd p{};
  p.fd = fd;
  p.events = events;
  const int ready = ::poll(&p, 1, PollTimeout(deadline));
  if (ready < 0 && errno != EINTR) return Errno("poll");
  return ready > 0;
}

}  // namespace

Connection::~Connection() { Close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      broken_(other.broken_),
      peer_closed_(other.peer_closed_),
      inbuf_(std::move(other.inbuf_)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    broken_ = other.broken_;
    peer_closed_ = other.peer_closed_;
    inbuf_ = std::move(other.inbuf_);
  }
  return *this;
}

Result<Connection> Connection::Connect(const std::string& host, uint16_t port,
                                       double connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string target = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address: " + host);
  }
  const std::string peer = StrCat({target, ":", std::to_string(port)});
  Connection conn(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (conn.fd_ < 0) return Errno("socket for " + peer);

  if (::connect(conn.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) return Errno("connect to " + peer);
    // Writable means the handshake finished; a refused connection reports
    // its error through SO_ERROR, not through poll itself.
    const Deadline deadline = connect_timeout_ms > 0.0
                                  ? Deadline::AfterMillis(connect_timeout_ms)
                                  : Deadline::Infinite();
    for (bool ready = false; !ready;) {
      MUVE_ASSIGN_OR_RETURN(ready, Await(conn.fd_, POLLOUT, deadline,
                                         "connect to " + peer));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(conn.fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
      return Errno("getsockopt(SO_ERROR) for " + peer);
    }
    if (so_error != 0) {
      return Status::Internal(StrCat(
          {"connect to ", peer, " failed: ", std::strerror(so_error)}));
    }
  }
  const int one = 1;
  ::setsockopt(conn.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  broken_ = false;
  peer_closed_ = false;
  inbuf_.clear();
}

Status Connection::Fail(Status status) {
  broken_ = true;
  return status;
}

Status Connection::Send(FrameType type, std::string_view payload,
                        const Deadline& deadline) {
  if (!connected()) return Status::FailedPrecondition("connection closed");
  // One buffer for header + payload, so a partial write can resume from
  // any byte offset.
  MUVE_ASSIGN_OR_RETURN(const std::string out, EncodeFrame(type, payload));

  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A timeout here aborts mid-frame: the byte stream is unusable.
      if (Result<bool> waited = Await(fd_, POLLOUT, deadline, "send");
          !waited.ok()) {
        return Fail(waited.status());
      }
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Fail(n < 0 ? Errno("send")
                        : Status::Internal("send failed: zero-byte write"));
    }
  }
  return Status::OK();
}

Result<bool> Connection::PumpReceive(Frame* frame) {
  if (!connected()) return Status::FailedPrecondition("connection closed");
  char chunk[16384];
  for (;;) {
    // Try to complete a frame from what is already buffered.
    if (inbuf_.size() >= 4) {
      Result<uint32_t> parsed = ParseFrameLength(inbuf_);
      if (!parsed.ok()) return Fail(parsed.status());
      const size_t length = *parsed;
      if (inbuf_.size() >= 4 + length) {
        frame->type = static_cast<FrameType>(inbuf_[4]);
        frame->payload.assign(inbuf_, 5, length - 1);
        inbuf_.erase(0, 4 + length);
        return true;
      }
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // Complete frames leave the buffer, so an empty one means the peer
      // closed between frames.
      if (!inbuf_.empty()) {
        return Fail(Status::ParseError("peer closed the connection mid-frame"));
      }
      peer_closed_ = true;
      return Fail(Status::Internal("peer closed the connection"));
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    if (errno == EINTR) continue;
    return Fail(Errno("recv"));
  }
}

Result<Frame> Connection::Receive(const Deadline& deadline) {
  Frame frame;
  for (;;) {
    MUVE_ASSIGN_OR_RETURN(bool complete, PumpReceive(&frame));
    if (complete) return frame;
    // A late response would desynchronize the stream.
    if (Result<bool> waited = Await(fd_, POLLIN, deadline, "receive");
        !waited.ok()) {
      return Fail(waited.status());
    }
  }
}

Result<Frame> Connection::Call(FrameType type, std::string_view payload,
                               const Deadline& deadline) {
  MUVE_RETURN_NOT_OK(Send(type, payload, deadline));
  MUVE_ASSIGN_OR_RETURN(Frame reply, Receive(deadline));
  if (reply.type != FrameType::kError) return reply;
  Status peer;
  MUVE_RETURN_NOT_OK(ParseErrorPayload(reply.payload, &peer));
  return peer;
}

}  // namespace muve::net
