#include "net/listener.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/strings.h"
#include "net/wire.h"

namespace muve::net {
namespace {

/// Answers `status` with an Error frame; false when the write fails.
bool WriteError(int fd, const Status& status) {
  WireWriter w;
  EncodeStatus(status, &w);
  return WriteFrame(fd, FrameType::kError, w.bytes()).ok();
}

}  // namespace

Listener::Listener(serve::Server* server, ListenerOptions options)
    : server_(server), options_(options) {}

Listener::~Listener() { Shutdown(); }

Status Listener::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return Status::FailedPrecondition("listener already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::Internal(std::string("bind failed: ") +
                                           std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const Status status = Status::Internal(std::string("listen failed: ") +
                                           std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  if (options_.announce) {
    std::printf("LISTENING port=%u\n", static_cast<unsigned>(port_));
    std::fflush(stdout);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    // shutdown() unblocks accept(2); some platforms need the close too.
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

ListenerStats Listener::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Listener::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Shutdown closed the listening socket (or fatal error).
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t conn_id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) {
        ::close(fd);
        return;
      }
      conn_id = next_conn_id_++;
      conn_fds_.emplace(conn_id, fd);
      ++stats_.connections_accepted;
      conn_threads_.emplace_back(
          [this, conn_id, fd] { ServeConnection(conn_id, fd); });
    }
  }
}

void Listener::ServeConnection(uint64_t conn_id, int fd) {
  const std::string session_id = StrCat({"conn-", std::to_string(conn_id)});
  Frame frame;
  for (;;) {
    Result<bool> more = ReadFrame(fd, &frame);
    if (!more.ok()) {
      // Broken framing: nothing sensible to answer on this byte stream.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.protocol_errors;
      break;
    }
    if (!more.value()) break;  // Peer closed cleanly.
    bool keep = true;
    switch (frame.type) {
      case FrameType::kPing:
        keep = WriteFrame(fd, FrameType::kPong, "").ok();
        break;
      case FrameType::kRequest:
        keep = HandleRequest(session_id, fd, frame);
        break;
      case FrameType::kPartialQuery:
        keep = HandlePartialQuery(fd, frame);
        break;
      case FrameType::kStats:
        keep = WriteFrame(fd, FrameType::kStats,
                          stats_provider_ ? stats_provider_() : "{}")
                   .ok();
        break;
      default:
        // A frame type the server never expects from a client.
        (void)RejectFrame(
            fd, Status::InvalidArgument(
                    "unexpected frame type " +
                    std::to_string(static_cast<int>(frame.type))));
        keep = false;
        break;
    }
    if (!keep) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  conn_fds_.erase(conn_id);
}

bool Listener::RejectFrame(int fd, const Status& status) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.protocol_errors;
  }
  return WriteError(fd, status);
}

bool Listener::HandlePartialQuery(int fd, const Frame& frame) {
  if (partial_handler_ == nullptr) {
    return RejectFrame(fd, Status::FailedPrecondition(
                               "not a shard server (no partial handler)"));
  }
  Result<PartialQuery> query = ParsePartialQuery(frame.payload);
  if (!query.ok()) return RejectFrame(fd, query.status());
  Result<PartialResult> result =
      partial_handler_->HandlePartial(std::move(query).value());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests_served;
  }
  if (!result.ok()) return WriteError(fd, result.status());
  return WriteFrame(fd, FrameType::kPartialResult,
                    SerializePartialResult(result.value()))
      .ok();
}

bool Listener::HandleRequest(const std::string& session_id, int fd,
                             const Frame& frame) {
  if (server_ == nullptr) {
    return RejectFrame(fd, Status::FailedPrecondition(
                               "this endpoint serves shard partials only"));
  }
  // Payload: SerializeRequestPayload bytes.
  if (frame.payload.empty()) {
    return RejectFrame(fd, Status::ParseError("empty request frame"));
  }
  const uint8_t cls_byte = static_cast<uint8_t>(frame.payload[0]);
  if (cls_byte >= serve::kNumRequestClasses) {
    return RejectFrame(fd, Status::ParseError("bad request class " +
                                              std::to_string(cls_byte)));
  }
  const serve::RequestClass cls = static_cast<serve::RequestClass>(cls_byte);
  Result<Request> request =
      ParseRequest(std::string_view(frame.payload).substr(1));
  if (!request.ok()) return RejectFrame(fd, request.status());
  Result<serve::ServedAnswer> served =
      server_->Submit(session_id, std::move(request).value(), cls).get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests_served;
  }
  if (!served.ok()) return WriteError(fd, served.status());
  return WriteFrame(fd, FrameType::kAnswer,
                    SerializeServedAnswer(served.value()))
      .ok();
}

}  // namespace muve::net
