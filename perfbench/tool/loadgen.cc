// `perfbench_tool send`: the closed-loop load generator. Each connection
// sends its requests one at a time over the HSQ1 Unix socket (the protocol
// is lockstep request/response) and records, per request, the latency the
// client saw, the server's queue_ms/exec_ms split and the client's own
// codec time. Requests carry no deadline.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "tool/common.h"
#include "tool/tool.h"

namespace perfbench {
namespace {

namespace svc = hetesim::service;

/// A blocking framed connection; every read and write gives up after
/// kIoTimeoutSeconds so a wedged server fails the run instead of hanging it.
class Connection {
 public:
  static constexpr int kIoTimeoutSeconds = 60;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(const std::string& socket_path) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{kIoTimeoutSeconds, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  /// Writes `frame` and reads one response frame's payload.
  bool Exchange(const std::string& frame, std::string* payload) {
    if (!WriteAll(frame.data(), frame.size())) return false;
    uint8_t header_bytes[svc::kFrameHeaderBytes];
    if (!ReadAll(header_bytes, sizeof(header_bytes))) return false;
    hetesim::Result<svc::FrameHeader> header = svc::DecodeFrameHeader(header_bytes);
    if (!header.ok() || header->type != svc::FrameType::kResponse) return false;
    payload->assign(header->payload_bytes, '\0');
    return ReadAll(payload->data(), payload->size());
  }

 private:
  bool WriteAll(const char* data, size_t size) {
    while (size > 0) {
      const ssize_t n = send(fd_, data, size, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }
  bool ReadAll(void* buffer, size_t size) {
    char* out = static_cast<char*>(buffer);
    while (size > 0) {
      const ssize_t n = recv(fd_, out, size, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      out += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

svc::QueryKind WireKind(Kind kind) {
  switch (kind) {
    case Kind::kPair:
      return svc::QueryKind::kPair;
    case Kind::kSingle:
      return svc::QueryKind::kSingleSource;
    case Kind::kTopK:
      return svc::QueryKind::kTopK;
  }
  return svc::QueryKind::kPair;
}

/// Requests whose answers the oracle checks: a fixed set of positions. On
/// the ad-hoc walk, the three cold requests and the first hot one of every
/// sixth path.
bool InCheckSample(const Request& r) {
  switch (r.phase) {
    case Phase::kWarm:
      return true;
    case Phase::kTimed:
      return r.seq < 12 || r.seq % 1009 == 0;
    case Phase::kCold:
    case Phase::kHot:
      return r.seq % (6 * kAdhocRequestsPerPath) < 4;
  }
  return false;
}

/// Renders a served answer as a check-file line (see check.cc).
std::string AnswerLine(const Request& r, const svc::QueryResponse& response) {
  std::string line = "a " + std::to_string(r.conn) + " " + std::to_string(r.seq) +
                     " 1e-12 ";
  if (r.kind == Kind::kTopK) {
    line += "list " + std::to_string(response.items.size());
    for (const hetesim::Scored& item : response.items) {
      line += " " + std::to_string(item.id) + " " + Num(item.score);
    }
  } else {
    line += (r.kind == Kind::kPair ? "score " : "row ") +
            std::to_string(response.scores.size());
    for (double score : response.scores) line += " " + Num(score);
  }
  return line + "\n";
}

struct ConnResult {
  std::string records;
  std::string answers;
  int64_t sent = 0;
  int64_t failed = 0;
  std::string first_failure;
};

/// Sends `requests` in order on one connection until `stop_at` passes, or
/// until they run out unless `wrap` starts them over.
void RunConnection(const std::string& socket_path, const std::vector<const Request*>& requests,
                   Clock::time_point stop_at, bool wrap, ConnResult* result) {
  Connection conn;
  if (!conn.Open(socket_path)) {
    result->failed = 1;
    result->first_failure = "connect(" + socket_path + ") failed";
    return;
  }
  std::string payload;
  char line[256];
  for (size_t i = 0; i < requests.size() || (wrap && !requests.empty()); ++i) {
    if (Clock::now() >= stop_at) break;
    const Request* r = requests[i % requests.size()];
    const bool first_pass = i < requests.size();
    svc::QueryRequest request;
    request.id = (static_cast<uint64_t>(r->conn) << 40) | static_cast<uint64_t>(i);
    request.kind = WireKind(r->kind);
    request.path = r->path;
    request.source = r->source;
    request.target = r->kind == Kind::kPair ? r->target : 0;
    request.k = r->kind == Kind::kTopK ? r->k : 0;

    const Clock::time_point t0 = Clock::now();
    const std::string frame =
        svc::EncodeFrame(svc::FrameType::kRequest, svc::EncodeRequest(request));
    const Clock::time_point t1 = Clock::now();
    const bool exchanged = conn.Exchange(frame, &payload);
    const Clock::time_point t2 = Clock::now();
    hetesim::Result<svc::QueryResponse> response =
        exchanged ? svc::DecodeResponse(payload)
                  : hetesim::Result<svc::QueryResponse>(
                        hetesim::Status::IOError("transport failed"));
    const Clock::time_point t3 = Clock::now();
    ++result->sent;
    if (!response.ok()) {
      ++result->failed;
      if (result->first_failure.empty()) {
        result->first_failure = response.status().ToString();
      }
      break;  // the stream is no longer in step with the server
    }
    // A refusal, a degraded answer or a truncated top-k means the run did
    // not measure the work it claims to: count it, never time it as served.
    const bool ok = response->outcome == svc::ResponseOutcome::kOk &&
                    response->degradation == svc::DegradationLevel::kFull &&
                    !response->truncated && response->id == request.id;
    if (!ok) {
      ++result->failed;
      if (result->first_failure.empty()) {
        result->first_failure = std::string("outcome ") +
                                svc::ResponseOutcomeName(response->outcome) + " (" +
                                svc::DegradationLevelName(response->degradation) +
                                (response->truncated ? ", truncated" : "") + "): " +
                                response->message;
      }
    }
    std::snprintf(line, sizeof(line), "%d %lld %s %s %.6f %.6f %.6f %.3f %d\n", r->conn,
                  static_cast<long long>(r->seq), KindName(r->kind), PhaseName(r->phase),
                  MsBetween(t0, t3), response->queue_ms, response->exec_ms,
                  1e3 * (MsBetween(t0, t1) + MsBetween(t2, t3)), ok ? 1 : 0);
    result->records += line;
    if (ok && first_pass && InCheckSample(*r)) result->answers += AnswerLine(*r, *response);
  }
}

}  // namespace

int RunSend(const Flags& flags) {
  Schedule schedule;
  std::string error;
  std::string text;
  if (!ReadFile(flags.Get("schedule"), &text) || !ParseSchedule(text, &schedule, &error)) {
    std::fprintf(stderr, "send: cannot read schedule: %s\n", error.c_str());
    return 2;
  }
  const std::string phase = flags.Get("phase");
  const double seconds = flags.GetDouble("seconds", 1e9);
  const std::string socket_path = flags.Get("socket");

  // warm: every warm-up request on one connection. timed: one connection
  // per stream, closed loops for `seconds`, starting a stream over if it
  // runs out. walk: the ad-hoc walk, in order.
  std::vector<std::vector<const Request*>> streams;
  for (const Request& r : schedule.requests) {
    const bool wanted = phase == "warm"    ? r.phase == Phase::kWarm
                        : phase == "timed" ? r.phase == Phase::kTimed
                        : phase == "walk"  ? (r.phase == Phase::kCold || r.phase == Phase::kHot)
                                           : false;
    if (!wanted) continue;
    if (streams.size() <= static_cast<size_t>(r.conn)) streams.resize(r.conn + 1);
    streams[r.conn].push_back(&r);
  }
  if (streams.empty()) {
    std::fprintf(stderr, "send: no requests for phase '%s'\n", phase.c_str());
    return 2;
  }

  std::vector<ConnResult> results(streams.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < streams.size(); ++c) {
      threads.emplace_back(RunConnection, socket_path, std::cref(streams[c]), stop_at,
                           phase == "timed", &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;

  std::string records;
  std::string answers;
  int64_t sent = 0;
  int64_t failed = 0;
  std::string first_failure;
  for (const ConnResult& result : results) {
    records += result.records;
    answers += result.answers;
    sent += result.sent;
    failed += result.failed;
    if (first_failure.empty()) first_failure = result.first_failure;
  }
  if (!WriteFile(flags.Get("records"), records) || !WriteFile(flags.Get("answers"), answers)) {
    std::fprintf(stderr, "send: cannot write results\n");
    return 1;
  }
  std::printf(
      "{\"sent\": %lld, \"failed\": %lld, \"elapsed_s\": %s, \"streams\": %zu, "
      "\"first_failure\": \"%s\"}\n",
      static_cast<long long>(sent), static_cast<long long>(failed), Num(elapsed_s).c_str(),
      streams.size(), JsonEscape(first_failure).c_str());
  return 0;
}

}  // namespace perfbench
