#include "service/protocol.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/string_util.h"

namespace hetesim::service {
namespace {

// Payload field layout versions. Bumped when a struct gains fields; the
// decoder rejects versions it does not know rather than misparsing.
constexpr uint8_t kRequestVersion = 1;
constexpr uint8_t kResponseVersion = 1;

/// poll() one fd for `events`, retrying on EINTR, until `deadline`.
/// Returns the revents, 0 on timeout and -1 when poll() fails.
int PollFd(int fd, short events, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int timeout_ms =
        static_cast<int>(std::max<int64_t>(0, remaining.count()));
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;  // timeout
    return pfd.revents;
  }
}

/// Little-endian append-only serializer over a std::string.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader. Every accessor either succeeds or
/// returns InvalidArgument; nothing ever reads past `size_`.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data)
      : data_(reinterpret_cast<const uint8_t*>(data.data())), size_(data.size()) {}

  [[nodiscard]] Status U8(uint8_t* out) {
    HETESIM_RETURN_NOT_OK(Need(1));
    *out = data_[pos_++];
    return Status::OK();
  }
  [[nodiscard]] Status U32(uint32_t* out) {
    HETESIM_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  [[nodiscard]] Status U64(uint64_t* out) {
    HETESIM_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return Status::OK();
  }
  [[nodiscard]] Status I64(int64_t* out) {
    uint64_t bits = 0;
    HETESIM_RETURN_NOT_OK(U64(&bits));
    *out = static_cast<int64_t>(bits);
    return Status::OK();
  }
  [[nodiscard]] Status F64(double* out) {
    uint64_t bits = 0;
    HETESIM_RETURN_NOT_OK(U64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }
  [[nodiscard]] Status Str(std::string* out, size_t max_bytes) {
    uint32_t len = 0;
    HETESIM_RETURN_NOT_OK(U32(&len));
    if (len > max_bytes) {
      return Status::InvalidArgument(
          StrFormat("string field of %u bytes exceeds limit %zu", len, max_bytes));
    }
    HETESIM_RETURN_NOT_OK(Need(len));
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  [[nodiscard]] Status CheckDone() const {
    if (pos_ != size_) {
      return Status::InvalidArgument(
          StrFormat("%zu trailing bytes after payload", size_ - pos_));
    }
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  [[nodiscard]] Status Need(size_t n) const {
    if (size_ - pos_ < n) {
      return Status::InvalidArgument(
          StrFormat("truncated payload: need %zu bytes at offset %zu of %zu", n,
                    pos_, size_));
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// An element-count field in a payload can promise at most what the frame
// cap could carry; anything larger is corruption, rejected before the
// vector reserve so a hostile length can never force an over-allocation.
constexpr uint32_t kMaxWireElements = kMaxFramePayload / 8;

}  // namespace

const char* ResponseOutcomeName(ResponseOutcome outcome) {
  switch (outcome) {
    case ResponseOutcome::kOk: return "ok";
    case ResponseOutcome::kDegraded: return "degraded";
    case ResponseOutcome::kRejected: return "rejected";
    case ResponseOutcome::kShed: return "shed";
    case ResponseOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case ResponseOutcome::kCancelled: return "cancelled";
    case ResponseOutcome::kError: return "error";
    case ResponseOutcome::kTransportError: return "transport_error";
  }
  return "unknown";
}

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull: return "full";
    case DegradationLevel::kUncached: return "uncached";
    case DegradationLevel::kTruncatedTopK: return "truncated_topk";
    case DegradationLevel::kFastReject: return "fast_reject";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U8(static_cast<uint8_t>(type));
  w.U8(0);
  w.U8(0);
  w.U8(0);
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string frame = w.Take();
  frame.append(payload.data(), payload.size());
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data) {
  ByteReader r(std::string_view(reinterpret_cast<const char*>(data), kFrameHeaderBytes));
  uint32_t magic = 0;
  HETESIM_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(StrFormat("bad frame magic 0x%08x", magic));
  }
  uint8_t type = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&type));
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kPong)) {
    return Status::InvalidArgument(StrFormat("unknown frame type %u", type));
  }
  for (int i = 0; i < 3; ++i) {
    uint8_t reserved = 0;
    HETESIM_RETURN_NOT_OK(r.U8(&reserved));
    if (reserved != 0) {
      return Status::InvalidArgument("non-zero reserved byte in frame header");
    }
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  HETESIM_RETURN_NOT_OK(r.U32(&header.payload_bytes));
  if (header.payload_bytes > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("frame payload %u exceeds cap %u", header.payload_bytes,
                  kMaxFramePayload));
  }
  return header;
}

std::string EncodeRequest(const QueryRequest& request) {
  ByteWriter w;
  w.U8(kRequestVersion);
  w.U64(request.id);
  w.U8(static_cast<uint8_t>(request.kind));
  w.U32(request.tenant);
  w.F64(request.deadline_ms);
  w.Str(request.path);
  w.I64(request.source);
  w.I64(request.target);
  w.U32(static_cast<uint32_t>(request.k));
  return w.Take();
}

Result<QueryRequest> DecodeRequest(std::string_view payload) {
  ByteReader r(payload);
  uint8_t version = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&version));
  if (version != kRequestVersion) {
    return Status::InvalidArgument(StrFormat("unknown request version %u", version));
  }
  QueryRequest req;
  HETESIM_RETURN_NOT_OK(r.U64(&req.id));
  uint8_t kind = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&kind));
  if (kind > static_cast<uint8_t>(QueryKind::kTopK)) {
    return Status::InvalidArgument(StrFormat("unknown query kind %u", kind));
  }
  req.kind = static_cast<QueryKind>(kind);
  HETESIM_RETURN_NOT_OK(r.U32(&req.tenant));
  HETESIM_RETURN_NOT_OK(r.F64(&req.deadline_ms));
  HETESIM_RETURN_NOT_OK(r.Str(&req.path, kMaxPathSpecBytes));
  HETESIM_RETURN_NOT_OK(r.I64(&req.source));
  HETESIM_RETURN_NOT_OK(r.I64(&req.target));
  uint32_t k = 0;
  HETESIM_RETURN_NOT_OK(r.U32(&k));
  if (k > static_cast<uint32_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument(StrFormat("k %u out of range", k));
  }
  req.k = static_cast<int32_t>(k);
  HETESIM_RETURN_NOT_OK(r.CheckDone());
  return req;
}

std::string EncodeResponse(const QueryResponse& response) {
  ByteWriter w;
  w.U8(kResponseVersion);
  w.U64(response.id);
  w.U8(static_cast<uint8_t>(response.outcome));
  w.U8(static_cast<uint8_t>(response.degradation));
  w.U32(static_cast<uint32_t>(response.status_code));
  w.Str(std::string_view(response.message).substr(0, kMaxMessageBytes));
  w.F64(response.retry_after_ms);
  w.U8(response.truncated ? 1 : 0);
  w.U32(static_cast<uint32_t>(response.items.size()));
  for (const Scored& item : response.items) {
    w.I64(item.id);
    w.F64(item.score);
  }
  w.U32(static_cast<uint32_t>(response.scores.size()));
  for (double score : response.scores) w.F64(score);
  w.F64(response.queue_ms);
  w.F64(response.exec_ms);
  return w.Take();
}

Result<QueryResponse> DecodeResponse(std::string_view payload) {
  ByteReader r(payload);
  uint8_t version = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&version));
  if (version != kResponseVersion) {
    return Status::InvalidArgument(StrFormat("unknown response version %u", version));
  }
  QueryResponse resp;
  HETESIM_RETURN_NOT_OK(r.U64(&resp.id));
  uint8_t outcome = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&outcome));
  // kTransportError is client-local; a peer claiming it is corrupt.
  if (outcome >= static_cast<uint8_t>(ResponseOutcome::kTransportError)) {
    return Status::InvalidArgument(StrFormat("unknown outcome %u", outcome));
  }
  resp.outcome = static_cast<ResponseOutcome>(outcome);
  uint8_t degradation = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&degradation));
  if (degradation > static_cast<uint8_t>(DegradationLevel::kFastReject)) {
    return Status::InvalidArgument(StrFormat("unknown degradation %u", degradation));
  }
  resp.degradation = static_cast<DegradationLevel>(degradation);
  uint32_t code = 0;
  HETESIM_RETURN_NOT_OK(r.U32(&code));
  if (code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return Status::InvalidArgument(StrFormat("unknown status code %u", code));
  }
  resp.status_code = static_cast<StatusCode>(code);
  HETESIM_RETURN_NOT_OK(r.Str(&resp.message, kMaxMessageBytes));
  HETESIM_RETURN_NOT_OK(r.F64(&resp.retry_after_ms));
  uint8_t truncated = 0;
  HETESIM_RETURN_NOT_OK(r.U8(&truncated));
  if (truncated > 1) {
    return Status::InvalidArgument("non-boolean truncation marker");
  }
  resp.truncated = truncated != 0;
  uint32_t num_items = 0;
  HETESIM_RETURN_NOT_OK(r.U32(&num_items));
  if (num_items > kMaxWireElements || r.remaining() / 16 < num_items) {
    return Status::InvalidArgument(StrFormat("item count %u exceeds payload", num_items));
  }
  resp.items.reserve(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    Scored item;
    HETESIM_RETURN_NOT_OK(r.I64(&item.id));
    HETESIM_RETURN_NOT_OK(r.F64(&item.score));
    resp.items.push_back(item);
  }
  uint32_t num_scores = 0;
  HETESIM_RETURN_NOT_OK(r.U32(&num_scores));
  if (num_scores > kMaxWireElements || r.remaining() / 8 < num_scores) {
    return Status::InvalidArgument(
        StrFormat("score count %u exceeds payload", num_scores));
  }
  resp.scores.reserve(num_scores);
  for (uint32_t i = 0; i < num_scores; ++i) {
    double score = 0;
    HETESIM_RETURN_NOT_OK(r.F64(&score));
    resp.scores.push_back(score);
  }
  HETESIM_RETURN_NOT_OK(r.F64(&resp.queue_ms));
  HETESIM_RETURN_NOT_OK(r.F64(&resp.exec_ms));
  HETESIM_RETURN_NOT_OK(r.CheckDone());
  return resp;
}

IoResult ReadFully(int fd, uint8_t* buffer, size_t bytes,
                   std::chrono::steady_clock::time_point deadline) {
  size_t done = 0;
  while (done < bytes) {
    const int revents = PollFd(fd, POLLIN, deadline);
    if (revents == 0) return IoResult::kTimedOut;
    if (revents < 0 || (revents & (POLLERR | POLLNVAL)) != 0) {
      return IoResult::kFailed;
    }
    const ssize_t n = recv(fd, buffer + done, bytes - done, 0);
    if (n == 0) return IoResult::kFailed;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kFailed;
    }
    done += static_cast<size_t>(n);
  }
  return IoResult::kDone;
}

IoResult WriteFully(int fd, const uint8_t* data, size_t bytes,
                    std::chrono::steady_clock::time_point deadline) {
  size_t done = 0;
  while (done < bytes) {
    const int revents = PollFd(fd, POLLOUT, deadline);
    if (revents == 0) return IoResult::kTimedOut;  // peer not draining
    if (revents < 0 || (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      return IoResult::kFailed;
    }
    const ssize_t n = send(fd, data + done, bytes - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kFailed;
    }
    done += static_cast<size_t>(n);
  }
  return IoResult::kDone;
}

}  // namespace hetesim::service
