#include "net/protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/strings.h"
#include "net/wire.h"

namespace muve::net {
namespace {

Status IoError(const char* op) {
  return Status::Internal(std::string(op) + " failed: " +
                          std::strerror(errno));
}

/// Writes all of `data`, looping over short writes and EINTR.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `*clean_eof` is set when the peer closed
/// before the first byte — a legal end of stream between frames.
Status ReadAll(int fd, char* data, size_t size, bool* clean_eof) {
  size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd, data + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("recv");
    }
    if (n == 0) {
      if (received == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::ParseError("connection closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> EncodeFrame(FrameType type, std::string_view payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size() + 1));
  w.PutU8(static_cast<uint8_t>(type));
  w.PutRaw(payload);
  return w.Take();
}

Result<uint32_t> ParseFrameLength(std::string_view header) {
  WireReader r(header);
  MUVE_ASSIGN_OR_RETURN(const uint32_t length, r.ReadU32());
  if (length == 0 || length > kMaxFrameBytes) {
    return Status::ParseError(
        StrCat({"bad frame length ", std::to_string(length)}));
  }
  return length;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  // One buffered send per frame: header + payload together, so a frame
  // never straddles a TCP_NODELAY packet boundary unnecessarily.
  MUVE_ASSIGN_OR_RETURN(const std::string frame, EncodeFrame(type, payload));
  return WriteAll(fd, frame.data(), frame.size());
}

Result<bool> ReadFrame(int fd, Frame* frame) {
  char header[4];
  bool clean_eof = false;
  MUVE_RETURN_NOT_OK(ReadAll(fd, header, sizeof(header), &clean_eof));
  if (clean_eof) return false;
  MUVE_ASSIGN_OR_RETURN(const uint32_t length,
                        ParseFrameLength(std::string_view(header, 4)));
  char type = 0;
  MUVE_RETURN_NOT_OK(ReadAll(fd, &type, 1, nullptr));
  frame->type = static_cast<FrameType>(static_cast<uint8_t>(type));
  frame->payload.resize(length - 1);
  if (length > 1) {
    MUVE_RETURN_NOT_OK(ReadAll(fd, frame->payload.data(), length - 1, nullptr));
  }
  return true;
}

}  // namespace muve::net
