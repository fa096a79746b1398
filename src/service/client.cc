#include "service/client.h"

#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>  // hetesim-lint: allow(no-raw-thread) — sleep_for only, no threads spawned
#include <utility>

#include "common/string_util.h"

namespace hetesim::service {

// ---------------------------------------------------------------------------
// SocketClient

SocketClient::SocketClient(std::string socket_path, int io_timeout_ms)
    : socket_path_(std::move(socket_path)), io_timeout_ms_(io_timeout_ms) {}

SocketClient::~SocketClient() { Disconnect(); }

bool SocketClient::EnsureConnected() {
  if (fd_ >= 0) return true;
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) return false;
  memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size());
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

void SocketClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

QueryResponse SocketClient::TransportError(const QueryRequest& request,
                                           std::string message) {
  // A failed exchange leaves the stream unsynchronized; reconnect next call.
  Disconnect();
  QueryResponse response;
  response.id = request.id;
  response.outcome = ResponseOutcome::kTransportError;
  response.status_code = StatusCode::kIOError;
  response.message = std::move(message);
  return response;
}

QueryResponse SocketClient::Execute(const QueryRequest& request) {
  if (!EnsureConnected()) {
    return TransportError(request,
                          StrFormat("connect(%s) failed", socket_path_.c_str()));
  }
  const auto io_grace = std::chrono::milliseconds(io_timeout_ms_);
  const std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(request));
  if (WriteFully(fd_, reinterpret_cast<const uint8_t*>(frame.data()),
                 frame.size(), Clock::now() + io_grace) != IoResult::kDone) {
    return TransportError(request, "request write failed");
  }

  // The server may legitimately hold the response for the query's whole
  // deadline; only beyond deadline + grace is it considered stalled.
  auto read_deadline = Clock::now() + io_grace;
  if (request.deadline_ms > 0) {
    read_deadline += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(request.deadline_ms));
  }
  uint8_t header_bytes[kFrameHeaderBytes];
  if (ReadFully(fd_, header_bytes, sizeof(header_bytes), read_deadline) !=
      IoResult::kDone) {
    return TransportError(request, "response header read failed");
  }
  Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
  if (!header.ok()) {
    return TransportError(request,
                          std::string(header.status().message()));
  }
  if (header->type != FrameType::kResponse) {
    return TransportError(request, "unexpected frame type in response");
  }
  std::string payload(header->payload_bytes, '\0');
  if (header->payload_bytes > 0 &&
      ReadFully(fd_, reinterpret_cast<uint8_t*>(payload.data()), payload.size(),
                read_deadline) != IoResult::kDone) {
    return TransportError(request, "response payload read failed");
  }
  Result<QueryResponse> response = DecodeResponse(payload);
  if (!response.ok()) {
    return TransportError(request, std::string(response.status().message()));
  }
  return std::move(*response);
}

bool SocketClient::Ping() {
  if (!EnsureConnected()) return false;
  const auto deadline = Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  const std::string frame = EncodeFrame(FrameType::kPing, "");
  uint8_t header_bytes[kFrameHeaderBytes];
  if (WriteFully(fd_, reinterpret_cast<const uint8_t*>(frame.data()),
                 frame.size(), deadline) != IoResult::kDone ||
      ReadFully(fd_, header_bytes, sizeof(header_bytes), deadline) !=
          IoResult::kDone) {
    Disconnect();
    return false;
  }
  Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
  if (!header.ok() || header->type != FrameType::kPong ||
      header->payload_bytes != 0) {
    Disconnect();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// RetryingClient

namespace {

bool Retryable(ResponseOutcome outcome) {
  return outcome == ResponseOutcome::kRejected ||
         outcome == ResponseOutcome::kShed ||
         outcome == ResponseOutcome::kTransportError;
}

}  // namespace

RetryingClient::RetryingClient(std::unique_ptr<ServiceClient> base,
                               const RetryOptions& options)
    : RetryingClient(
          std::move(base), options, [] { return Clock::now(); },
          [](double ms) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ms));
          }) {}

RetryingClient::RetryingClient(std::unique_ptr<ServiceClient> base,
                               const RetryOptions& options, NowFn now,
                               SleepFn sleep)
    : base_(std::move(base)),
      options_(options),
      backoff_(options.backoff, options.seed),
      breaker_(options.breaker),
      now_(std::move(now)),
      sleep_(std::move(sleep)) {}

QueryResponse RetryingClient::Execute(const QueryRequest& request) {
  const Clock::time_point start = now_();
  // The original deadline is a wall across all attempts, not per attempt.
  const bool has_deadline = request.deadline_ms > 0;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      has_deadline ? request.deadline_ms : 0));

  QueryResponse last;
  last.id = request.id;
  last.outcome = ResponseOutcome::kTransportError;
  last.status_code = StatusCode::kIOError;
  last.message = "no attempt made";

  for (int attempt = 0; attempt < std::max(1, options_.max_attempts); ++attempt) {
    const Clock::time_point attempt_start = now_();
    double remaining_ms = 0;
    if (has_deadline) {
      remaining_ms =
          std::chrono::duration<double, std::milli>(deadline - attempt_start)
              .count();
      if (remaining_ms <= 0) {
        last.outcome = ResponseOutcome::kDeadlineExceeded;
        last.status_code = StatusCode::kDeadlineExceeded;
        last.message = "deadline exhausted before attempt";
        return last;
      }
    }

    if (!breaker_.AllowRequest(attempt_start)) {
      last.outcome = ResponseOutcome::kTransportError;
      last.status_code = StatusCode::kResourceExhausted;
      last.message = "circuit breaker open";
      return last;
    }

    QueryRequest attempt_request = request;
    if (has_deadline) attempt_request.deadline_ms = remaining_ms;
    last = base_->Execute(attempt_request);

    if (last.outcome == ResponseOutcome::kTransportError) {
      breaker_.RecordFailure(now_());
    } else {
      // Any well-formed server answer — including a rejection — proves the
      // transport healthy.
      breaker_.RecordSuccess();
    }
    if (!Retryable(last.outcome)) return last;
    if (attempt + 1 >= std::max(1, options_.max_attempts)) return last;

    // Server hint wins when it asks for more patience than the jitter draw.
    const double delay_ms = std::max(backoff_.NextDelayMs(), last.retry_after_ms);
    if (has_deadline) {
      const double budget_ms =
          std::chrono::duration<double, std::milli>(deadline - now_()).count();
      // Never sleep past the wall: if the delay (plus any margin for the
      // attempt itself) cannot fit, report what we have now.
      if (delay_ms >= budget_ms) return last;
    }
    ++retries_attempted_;
    sleep_(delay_ms);
  }
  return last;
}

}  // namespace hetesim::service
