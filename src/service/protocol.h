#ifndef HETESIM_SERVICE_PROTOCOL_H_
#define HETESIM_SERVICE_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/frontier.h"

namespace hetesim::service {

/// \file
/// Wire protocol of the resident query service (DESIGN.md §13).
///
/// Every message is one *frame*:
///
///   offset  size  field
///   0       4     magic "HSQ1" (0x31515348 little-endian)
///   4       1     frame type (FrameType)
///   5       3     reserved, must be zero
///   8       4     payload length, little-endian, <= kMaxFramePayload
///   12      N     payload
///
/// All integers are little-endian; doubles are IEEE-754 bit patterns.
/// Decoding is fully bounds-checked and never trusts a length field beyond
/// `kMaxFramePayload`: a malformed frame yields `InvalidArgument`, never a
/// crash or an over-allocation — the resilience suite fuzzes this with
/// random corruptions under ASan.

/// Frame kinds. A connection is lockstep request/response: the client sends
/// one `kRequest` (or `kPing`) and reads one `kResponse` (or `kPong`)
/// before sending the next.
enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
  kPing = 3,
  kPong = 4,
};

inline constexpr uint32_t kFrameMagic = 0x31515348u;  // "HSQ1"
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound on one payload; a header announcing more is corruption.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;
/// Upper bound on a request's meta-path spec string.
inline constexpr size_t kMaxPathSpecBytes = 4096;
/// Upper bound on an error/diagnostic message on the wire.
inline constexpr size_t kMaxMessageBytes = 4096;

/// Which engine entry point a request exercises (mirrors the paper's three
/// interactive query shapes).
enum class QueryKind : uint8_t {
  kPair = 0,          ///< HeteSim(source, target | path)
  kSingleSource = 1,  ///< one full relevance row
  kTopK = 2,          ///< pruned top-k targets for one source
};

/// Terminal disposition of a request, as seen by the client.
enum class ResponseOutcome : uint8_t {
  kOk = 0,                ///< full answer
  kDegraded = 1,          ///< served under a degradation level > kFull
  kRejected = 2,          ///< admission refused (queue/deadline/quota)
  kShed = 3,              ///< load/memory shed: fast-reject + Retry-After
  kDeadlineExceeded = 4,  ///< admitted, died on its deadline mid-compute
  kCancelled = 5,         ///< admitted, cancelled mid-compute
  kError = 6,             ///< invalid request or internal failure
  /// Client-side only (never on the wire): the transport failed before a
  /// response arrived (connect refused, write/read timeout, short frame).
  kTransportError = 7,
};

const char* ResponseOutcomeName(ResponseOutcome outcome);

/// The graceful-degradation ladder, selected by measured load at admission
/// (DESIGN.md §13): each level trades answer quality for bounded work.
enum class DegradationLevel : uint8_t {
  kFull = 0,          ///< normal execution, cache on
  kUncached = 1,      ///< bypass the path-matrix cache (no churn/growth)
  kTruncatedTopK = 2, ///< top-k under a tightened slice; partial + marker
  kFastReject = 3,    ///< not served: immediate shed with Retry-After
};

const char* DegradationLevelName(DegradationLevel level);

/// One query, client to server.
struct QueryRequest {
  uint64_t id = 0;       ///< echoed in the response
  QueryKind kind = QueryKind::kPair;
  uint32_t tenant = 0;   ///< quota bucket
  double deadline_ms = 0;  ///< remaining client budget; 0 = none
  std::string path;      ///< MetaPath::Parse syntax, e.g. "A-P-C-P-A"
  int64_t source = 0;
  int64_t target = 0;    ///< pair only
  int32_t k = 0;         ///< top-k only
};

/// One answer, server to client.
struct QueryResponse {
  uint64_t id = 0;
  ResponseOutcome outcome = ResponseOutcome::kError;
  DegradationLevel degradation = DegradationLevel::kFull;
  StatusCode status_code = StatusCode::kOk;
  std::string message;     ///< diagnostic for non-OK outcomes
  double retry_after_ms = 0;  ///< rejection/shed hint; 0 = no hint
  bool truncated = false;  ///< top-k partial answer marker
  std::vector<Scored> items;   ///< top-k answers
  std::vector<double> scores;  ///< pair (1 entry) / single-source row
  double queue_ms = 0;  ///< admission-to-dispatch wait measured server-side
  double exec_ms = 0;   ///< kernel execution time measured server-side

  /// True when the request was actually served (possibly degraded or
  /// truncated) rather than refused or failed.
  bool served() const {
    return outcome == ResponseOutcome::kOk ||
           outcome == ResponseOutcome::kDegraded;
  }
};

/// Encodes `payload` as one frame of `type` (header + payload).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Decoded frame header.
struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint32_t payload_bytes = 0;
};

/// Validates and decodes the 12-byte header at `data` (which must hold at
/// least `kFrameHeaderBytes`). Bad magic, unknown type, non-zero reserved
/// bytes or an oversized length are `InvalidArgument` — the connection is
/// unsynchronized and must be closed.
[[nodiscard]] Result<FrameHeader> DecodeFrameHeader(const uint8_t* data);

/// Request payload codecs.
std::string EncodeRequest(const QueryRequest& request);
[[nodiscard]] Result<QueryRequest> DecodeRequest(std::string_view payload);

/// Response payload codecs.
std::string EncodeResponse(const QueryResponse& response);
[[nodiscard]] Result<QueryResponse> DecodeResponse(std::string_view payload);

/// How a deadline-bounded socket transfer ended.
enum class IoResult : uint8_t {
  kDone,      ///< every byte was moved
  kTimedOut,  ///< the deadline passed first: the peer stalled
  kFailed,    ///< end of stream, a socket error or a failed poll()
};

/// Exact-length IO on a stream socket, the one copy both ends of HSQ1 read
/// and write frames with: poll() waits for `fd` at most until `deadline`,
/// and EINTR and EAGAIN retry. A write to a closed peer fails instead of
/// raising SIGPIPE.
[[nodiscard]] IoResult ReadFully(int fd, uint8_t* buffer, size_t bytes,
                                 std::chrono::steady_clock::time_point deadline);
[[nodiscard]] IoResult WriteFully(int fd, const uint8_t* data, size_t bytes,
                                  std::chrono::steady_clock::time_point deadline);

}  // namespace hetesim::service

#endif  // HETESIM_SERVICE_PROTOCOL_H_
