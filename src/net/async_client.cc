#include "net/async_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "net/socket.h"
#include "net/wire.h"

namespace muve::net {

namespace {

/// poll(2) timeout for the remaining deadline budget: at least 1ms while
/// budget remains (so a sub-millisecond remainder still polls instead of
/// busy-spinning), -1 (infinite) for an infinite deadline.
int PollTimeout(const Deadline& deadline) {
  if (!deadline.IsFinite()) return -1;
  const double remaining = deadline.RemainingMillis();
  if (remaining <= 0.0) return 0;
  return static_cast<int>(std::ceil(std::min(remaining, 3600000.0)));
}

}  // namespace

AsyncClient::~AsyncClient() { Close(); }

AsyncClient::AsyncClient(AsyncClient&& other) noexcept
    : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

AsyncClient& AsyncClient::operator=(AsyncClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

Result<AsyncClient> AsyncClient::Connect(const std::string& host,
                                         uint16_t port,
                                         double connect_timeout_ms) {
  MUVE_ASSIGN_OR_RETURN(const int fd,
                        ConnectFd(host, port, connect_timeout_ms));
  if (Status status = SetNonBlocking(fd, true); !status.ok()) {
    ::close(fd);
    return status;
  }
  return AsyncClient(fd);
}

void AsyncClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

Status AsyncClient::Send(FrameType type, std::string_view payload,
                         const Deadline& deadline) {
  if (fd_ < 0) return Status::FailedPrecondition("async client not connected");
  // One buffer for header + payload, so a partial write can resume from
  // any byte offset.
  MUVE_ASSIGN_OR_RETURN(const std::string out, EncodeFrame(type, payload));

  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (deadline.Expired()) {
        Close();  // Mid-frame abort: the byte stream is unusable.
        return Status::Timeout("send timed out mid-frame");
      }
      pollfd p{};
      p.fd = fd_;
      p.events = POLLOUT;
      const int ready = ::poll(&p, 1, PollTimeout(deadline));
      if (ready < 0 && errno != EINTR) {
        const Status status =
            Status::Internal(std::string("poll(POLLOUT) failed: ") +
                             std::strerror(errno));
        Close();
        return status;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const Status status = Status::Internal(
        std::string("send failed: ") +
        (n < 0 ? std::strerror(errno) : "zero-byte write"));
    Close();
    return status;
  }
  return Status::OK();
}

Result<bool> AsyncClient::PumpReceive(Frame* frame) {
  if (fd_ < 0) return Status::FailedPrecondition("async client not connected");
  char chunk[16384];
  for (;;) {
    // Try to complete a frame from what is already buffered.
    if (inbuf_.size() >= 4) {
      Result<uint32_t> parsed = ParseFrameLength(inbuf_);
      if (!parsed.ok()) {
        Close();
        return parsed.status();
      }
      const uint32_t length = *parsed;
      if (inbuf_.size() >= 4 + static_cast<size_t>(length)) {
        frame->type = static_cast<FrameType>(inbuf_[4]);
        frame->payload.assign(inbuf_, 5, length - 1);
        inbuf_.erase(0, 4 + static_cast<size_t>(length));
        return true;
      }
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbuf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      Close();
      return Status::Internal("peer closed connection mid-exchange");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    if (errno == EINTR) continue;
    const Status status =
        Status::Internal(std::string("recv failed: ") + std::strerror(errno));
    Close();
    return status;
  }
}

Result<Frame> AsyncClient::Receive(const Deadline& deadline) {
  Frame frame;
  for (;;) {
    MUVE_ASSIGN_OR_RETURN(bool complete, PumpReceive(&frame));
    if (complete) return frame;
    if (deadline.Expired()) {
      Close();  // A late response would desynchronize the stream.
      return Status::Timeout("receive timed out");
    }
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int ready = ::poll(&p, 1, PollTimeout(deadline));
    if (ready < 0 && errno != EINTR) {
      const Status status = Status::Internal(
          std::string("poll(POLLIN) failed: ") + std::strerror(errno));
      Close();
      return status;
    }
  }
}

Result<Frame> AsyncClient::Call(FrameType type, std::string_view payload,
                                const Deadline& deadline) {
  MUVE_RETURN_NOT_OK(Send(type, payload, deadline));
  MUVE_ASSIGN_OR_RETURN(Frame reply, Receive(deadline));
  if (reply.type != FrameType::kError) return reply;
  WireReader reader(reply.payload);
  Status status;
  MUVE_RETURN_NOT_OK(DecodeStatus(&reader, &status));
  if (status.ok()) {
    return Status::ParseError("error frame carried an OK status");
  }
  return status;
}

}  // namespace muve::net
