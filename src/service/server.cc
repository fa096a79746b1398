#include "service/server.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "service/protocol.h"

namespace hetesim::service {
namespace {

// How often the accept loop refreshes its watch list of executing
// connections; with a query's cancellation latency it bounds how fast a
// client disconnect turns into a cancelled query.
constexpr int kWatchPeriodMs = 20;

// Beyond POLLHUP and POLLERR (always reported): the peer shut down its
// writing side. A lockstep peer owes nothing while its request executes,
// so either means the answer has no recipient.
#ifdef POLLRDHUP
constexpr short kHangUpEvents = POLLRDHUP;
#else
constexpr short kHangUpEvents = 0;
#endif

}  // namespace

SocketServer::SocketServer(QueryService* service, const ServerOptions& options)
    : service_(service),
      options_(options),
      io_timeout_(std::chrono::milliseconds(options.io_timeout_ms)) {}

Result<std::unique_ptr<SocketServer>> SocketServer::Start(
    QueryService* service, const ServerOptions& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("socket path must not be empty");
  }
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket path too long (%zu bytes, max %zu)",
                  options.socket_path.size(), sizeof(addr.sun_path) - 1));
  }
  memcpy(addr.sun_path, options.socket_path.c_str(), options.socket_path.size());

  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket(): %s", strerror(errno)));
  }
  // A stale socket file from a crashed predecessor would make bind fail;
  // removing it is safe because a live listener would still hold its fd.
  unlink(options.socket_path.c_str());
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IOError(StrFormat("bind(%s): %s", options.socket_path.c_str(),
                                  strerror(errno)));
    close(fd);
    return status;
  }
  if (listen(fd, 64) < 0) {
    const Status status = Status::IOError(StrFormat("listen(): %s", strerror(errno)));
    close(fd);
    unlink(options.socket_path.c_str());
    return status;
  }

  // make_unique needs a public constructor; assembled in place instead.
  std::unique_ptr<SocketServer> server(
      new SocketServer(service, options));  // hetesim-lint: allow(no-naked-new)
  server->listen_fd_ = fd;
  server->handler_pool_ =
      std::make_unique<ThreadPool>(std::max(1, options.max_connections));
  server->accept_pool_ = std::make_unique<ThreadPool>(1);
  SocketServer* raw = server.get();
  server->accept_pool_->Submit([raw] { raw->AcceptLoop(); });
  return server;
}

SocketServer::~SocketServer() { Stop(); }

void SocketServer::Stop() {
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  // Wake the accept loop, cancel every executing query (TrackExecution
  // cancels a later one itself), and wake every blocked handler IO.
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  {
    MutexLock lock(mutex_);
    for (const auto& [fd, executing] : connections_) {
      if (executing.has_value()) executing->Cancel();
      shutdown(fd, SHUT_RDWR);
    }
  }
  // Joining the pools guarantees no handler touches a fd after this.
  accept_pool_.reset();
  handler_pool_.reset();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  unlink(options_.socket_path.c_str());
}

void SocketServer::TrackConnection(int fd, bool add) {
  MutexLock lock(mutex_);
  if (add) {
    connections_.emplace(fd, std::nullopt);
  } else {
    connections_.erase(fd);
  }
}

void SocketServer::TrackExecution(int fd, const CancelToken* cancel) {
  MutexLock lock(mutex_);
  if (cancel != nullptr && stopped_) cancel->Cancel();
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (cancel == nullptr) {
    it->second.reset();
  } else {
    it->second = *cancel;
  }
}

void SocketServer::AcceptLoop() {
  std::vector<struct pollfd> watched;
  while (!stopping_.load(std::memory_order_acquire)) {
    watched.assign(1, {listen_fd_, POLLIN, 0});
    {
      MutexLock lock(mutex_);
      for (const auto& [fd, executing] : connections_) {
        if (executing.has_value()) watched.push_back({fd, kHangUpEvents, 0});
      }
    }
    const int rc = poll(watched.data(), watched.size(), kWatchPeriodMs);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) break;  // poll failure: shutting down
    if (rc == 0) continue;
    {
      MutexLock lock(mutex_);
      for (size_t i = 1; i < watched.size(); ++i) {
        if ((watched[i].revents & (POLLHUP | POLLERR | kHangUpEvents)) == 0) continue;
        // Only this loop accepts, so a registered fd is still the polled
        // connection; one without a token has finished its request
        // meanwhile.
        auto it = connections_.find(watched[i].fd);
        if (it == connections_.end() || !it->second.has_value()) continue;
        it->second->Cancel();
        // Unwatched from here on, so the hang-up is counted once and does
        // not spin this loop while the query winds down.
        it->second.reset();
        disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const short revents = watched[0].revents;
    if (revents == 0) continue;
    if ((revents & POLLIN) == 0) break;
    const int conn = accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket gone (Stop) or unrecoverable
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Over capacity: refuse at the door rather than queue a handler the
      // busy pool would not run — the client sees EOF and retries.
      rejected_capacity_.fetch_add(1, std::memory_order_relaxed);
      close(conn);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    TrackConnection(conn, /*add=*/true);
    handler_pool_->Submit([this, conn] { HandleConnection(conn); });
  }
}

void SocketServer::HandleConnection(int fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!ServeOne(fd)) break;
  }
  TrackConnection(fd, /*add=*/false);
  close(fd);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

bool SocketServer::Completed(IoResult result) {
  if (result == IoResult::kTimedOut) {
    // A slow client, or one that stopped draining its socket.
    closed_stall_.fetch_add(1, std::memory_order_relaxed);
  }
  return result == IoResult::kDone;
}

bool SocketServer::Receive(int fd, uint8_t* buffer, size_t bytes) {
  // Stop shuts every connection down, which also ends a transfer under way.
  if (stopping_.load(std::memory_order_acquire)) return false;
  return Completed(ReadFully(fd, buffer, bytes, Clock::now() + io_timeout_));
}

bool SocketServer::Send(int fd, const std::string& frame) {
  if (stopping_.load(std::memory_order_acquire)) return false;
  return Completed(WriteFully(fd, reinterpret_cast<const uint8_t*>(frame.data()),
                              frame.size(), Clock::now() + io_timeout_));
}

bool SocketServer::ServeOne(int fd) {
  uint8_t header_bytes[kFrameHeaderBytes];
  if (!Receive(fd, header_bytes, sizeof(header_bytes))) return false;
  Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
  if (!header.ok()) {
    // Bad magic/type/length: the byte stream is unsynchronized, nothing
    // sent after this point can be trusted. Close.
    closed_protocol_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string payload(header->payload_bytes, '\0');
  if (header->payload_bytes > 0 &&
      !Receive(fd, reinterpret_cast<uint8_t*>(payload.data()), payload.size())) {
    return false;
  }

  if (header->type == FrameType::kPing) {
    return Send(fd, EncodeFrame(FrameType::kPong, ""));
  }
  if (header->type != FrameType::kRequest) {
    closed_protocol_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Chaos hook: corrupt the payload after a clean read, as a flaky peer or
  // truncated write would. The decoder must reject it; the server answers
  // with a well-formed error frame and survives.
  if (!payload.empty() && HETESIM_FAULT_POINT("service.frame.corrupt")) {
    payload[payload.size() / 2] ^= 0x5a;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  Result<QueryRequest> request = DecodeRequest(payload);
  QueryResponse response;
  if (!request.ok()) {
    // Framing is intact, only the payload is malformed — answer the error
    // and keep the connection.
    response.outcome = ResponseOutcome::kError;
    response.status_code = StatusCode::kInvalidArgument;
    response.message = std::string(request.status().message());
  } else {
    const CancelToken cancel;
    // Chaos hook: cancel the request as it enters the service, as a client
    // crash would.
    if (HETESIM_FAULT_POINT("service.conn.cancel")) cancel.Cancel();
    TrackExecution(fd, &cancel);
    response = service_->Execute(*request, cancel);
    TrackExecution(fd, nullptr);
  }

  return Send(fd, EncodeFrame(FrameType::kResponse, EncodeResponse(response)));
}

SocketServer::Stats SocketServer::stats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_capacity = rejected_capacity_.load(std::memory_order_relaxed);
  stats.closed_stall = closed_stall_.load(std::memory_order_relaxed);
  stats.closed_protocol = closed_protocol_.load(std::memory_order_relaxed);
  stats.disconnect_cancels = disconnect_cancels_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace hetesim::service
