#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/strings.h"

namespace muve::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(StrCat({what, ": ", std::strerror(errno)}));
}

/// Finishes a non-blocking connect: polls for writability, then reads
/// SO_ERROR — a refused connection reports its error there, not from
/// poll itself.
Status FinishConnect(int fd, const std::string& peer, double timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  const int timeout =
      static_cast<int>(std::ceil(std::max(1.0, timeout_ms)));
  for (;;) {
    const int ready = ::poll(&p, 1, timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll during connect to " + peer);
    }
    if (ready == 0) {
      return Status::Timeout("connect to " + peer + " timed out after " +
                             std::to_string(timeout) + "ms");
    }
    break;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
    return Errno("getsockopt(SO_ERROR) for " + peer);
  }
  if (so_error != 0) {
    return Status::Internal(
        StrCat({"connect to ", peer, " failed: ", std::strerror(so_error)}));
  }
  return Status::OK();
}

}  // namespace

Status SetNonBlocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Result<int> ConnectFd(const std::string& host, uint16_t port,
                      double connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string target = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address: " + host);
  }
  const std::string peer = StrCat({target, ":", std::to_string(port)});
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket for " + peer);

  const bool timed = connect_timeout_ms > 0.0 &&
                     connect_timeout_ms !=
                         std::numeric_limits<double>::infinity();
  if (timed) {
    if (Status status = SetNonBlocking(fd, true); !status.ok()) {
      ::close(fd);
      return status;
    }
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (timed && errno == EINPROGRESS) {
      if (Status status = FinishConnect(fd, peer, connect_timeout_ms);
          !status.ok()) {
        ::close(fd);
        return status;
      }
    } else {
      const Status status =
          Status::Internal(StrCat(
              {"connect to ", peer, " failed: ", std::strerror(errno)}));
      ::close(fd);
      return status;
    }
  }
  if (timed) {
    if (Status status = SetNonBlocking(fd, false); !status.ok()) {
      ::close(fd);
      return status;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace muve::net
