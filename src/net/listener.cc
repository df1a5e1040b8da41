#include "net/listener.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <system_error>
#include <unistd.h>
#include <utility>

#include "common/strings.h"

namespace muve::net {
namespace {

/// listen(2) backlog.
constexpr int kBacklog = 64;

/// Pause after a failed accept(2) or thread start before trying again:
/// a full fd table or an exhausted kernel clears only as connections
/// close, so retrying at once would spin.
constexpr std::chrono::milliseconds kAcceptBackoff{10};

/// Writes one reply frame; false when the write fails. Connections are
/// served until they close, so a reply has no deadline.
bool Reply(Connection& conn, FrameType type, std::string_view payload) {
  return conn.Send(type, payload, Deadline::Infinite()).ok();
}

}  // namespace

Listener::Listener(serve::Server* server, uint16_t port)
    : server_(server), requested_port_(port) {}

Listener::~Listener() { Shutdown(); }

Status Listener::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_ || shutdown_) {
      return Status::FailedPrecondition("listener already started");
    }
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(requested_port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::Internal(std::string("bind failed: ") +
                                           std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, kBacklog) < 0) {
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
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // shutdown(2) on the listening socket fails the blocked accept(2); the
  // fd is closed only once the accept thread is gone.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto& [id, live] : live_) ::shutdown(live.fd, SHUT_RDWR);
    retired_.wait(lock, [this] { return live_.empty(); });
    last = std::move(finished_);
  }
  // Each retired thread joined the one that ended before it, so joining
  // the last one joins them all.
  if (last.joinable()) last.join();
}

ListenerStats Listener::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Listener::AcceptLoop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    const int accept_errno = errno;
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      lock.unlock();
      // EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED, ...: none of them
      // ends the server.
      if (accept_errno != EINTR) std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t conn_id = next_conn_id_++;
    Live& live = live_[conn_id];
    live.fd = fd;
    try {
      // The thread retires itself under mutex_, so it cannot look up
      // its entry before this assignment lands.
      live.thread = std::thread(
          [this, conn_id, fd] { ServeConnection(conn_id, Connection(fd)); });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection, keep serving the others.
      live_.erase(conn_id);
      lock.unlock();
      ::close(fd);
      std::this_thread::sleep_for(kAcceptBackoff);
      continue;
    }
    ++stats_.connections_accepted;
  }
}

void Listener::ServeConnection(uint64_t conn_id, Connection conn) {
  const std::string session_id = StrCat({"conn-", std::to_string(conn_id)});
  for (;;) {
    Result<Frame> frame = conn.Receive(Deadline::Infinite());
    if (!frame.ok()) {
      // A close between frames ends the stream; anything else broke it,
      // and there is nothing sensible to answer on a broken byte stream.
      if (!conn.peer_closed()) CountProtocolError();
      break;
    }
    if (!ServeFrame(session_id, conn, *frame)) break;
  }
  Retire(conn_id, conn);
}

void Listener::Retire(uint64_t conn_id, Connection& conn) {
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(conn_id);
    previous = std::exchange(finished_, std::move(it->second.thread));
    live_.erase(it);
  }
  retired_.notify_all();
  conn.Close();
  if (previous.joinable()) previous.join();
}

bool Listener::ServeFrame(const std::string& session_id, Connection& conn,
                          const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing:
      return Reply(conn, FrameType::kPong, "");
    case FrameType::kRequest:
      return HandleRequest(session_id, conn, frame);
    case FrameType::kPartialQuery:
      return HandlePartialQuery(conn, frame);
    case FrameType::kStats:
      return Reply(conn, FrameType::kStats,
                   stats_provider_ ? stats_provider_() : "{}");
    default:
      // A frame type the server never expects from a client.
      (void)RejectFrame(
          conn, Status::InvalidArgument(
                    StrCat({"unexpected frame type ",
                            std::to_string(static_cast<int>(frame.type))})));
      return false;
  }
}

void Listener::CountProtocolError() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.protocol_errors;
}

bool Listener::RejectFrame(Connection& conn, const Status& status) {
  CountProtocolError();
  return Reply(conn, FrameType::kError, ErrorPayload(status));
}

bool Listener::HandlePartialQuery(Connection& conn, const Frame& frame) {
  if (partial_handler_ == nullptr) {
    return RejectFrame(conn, Status::FailedPrecondition(
                                 "not a shard server (no partial handler)"));
  }
  Result<PartialQuery> query = ParsePartialQuery(frame.payload);
  if (!query.ok()) return RejectFrame(conn, query.status());
  Result<PartialResult> result =
      partial_handler_->HandlePartial(std::move(query).value());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests_served;
  }
  if (!result.ok()) {
    return Reply(conn, FrameType::kError, ErrorPayload(result.status()));
  }
  return Reply(conn, FrameType::kPartialResult,
               SerializePartialResult(result.value()));
}

bool Listener::HandleRequest(const std::string& session_id, Connection& conn,
                             const Frame& frame) {
  if (server_ == nullptr) {
    return RejectFrame(conn, Status::FailedPrecondition(
                                 "this endpoint serves shard partials only"));
  }
  // Payload: SerializeRequestPayload bytes.
  if (frame.payload.empty()) {
    return RejectFrame(conn, Status::ParseError("empty request frame"));
  }
  const uint8_t cls_byte = static_cast<uint8_t>(frame.payload[0]);
  if (cls_byte >= serve::kNumRequestClasses) {
    return RejectFrame(conn, Status::ParseError("bad request class " +
                                                std::to_string(cls_byte)));
  }
  const serve::RequestClass cls = static_cast<serve::RequestClass>(cls_byte);
  Result<Request> request =
      ParseRequest(std::string_view(frame.payload).substr(1));
  if (!request.ok()) return RejectFrame(conn, request.status());
  Result<serve::ServedAnswer> served =
      server_->Submit(session_id, std::move(request).value(), cls).get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests_served;
  }
  if (!served.ok()) {
    return Reply(conn, FrameType::kError, ErrorPayload(served.status()));
  }
  return Reply(conn, FrameType::kAnswer,
               SerializeServedAnswer(served.value()));
}

}  // namespace muve::net
