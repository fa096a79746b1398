#ifndef HETESIM_COMMON_STATUS_H_
#define HETESIM_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace hetesim {

/// \brief Machine-readable category of a `Status`.
///
/// The set mirrors the categories used by Arrow/RocksDB-style database
/// libraries: the public API never throws; every fallible operation returns
/// a `Status` (or a `Result<T>`, see result.h) carrying one of these codes.
/// The values travel in the status field of HSQ1 (service/protocol.h), so
/// no code is renumbered or removed, even one no factory below produces.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kIOError = 6,
  kNotImplemented = 7,
  kInternal = 8,
  kDeadlineExceeded = 9,
  kResourceExhausted = 10,
  kCancelled = 11,
};

/// \brief Returns a stable human-readable name for a status code
/// (e.g. "Invalid argument").
std::string_view StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus a diagnostic message.
///
/// `Status` is cheap to pass by value: the OK state is represented by a null
/// pointer, so success costs one pointer copy and no allocation.
///
/// Typical use:
/// \code
///   Status s = graph.AddEdge("writes", a, p);
///   if (!s.ok()) return s;
/// \endcode
/// or with the convenience macro:
/// \code
///   HETESIM_RETURN_NOT_OK(graph.AddEdge("writes", a, p));
/// \endcode
///
/// The class is `[[nodiscard]]`: any call that returns a `Status` by value
/// and drops it is a compile error under `-Werror=unused-result` (enforced
/// repo-wide, see DESIGN.md §11). The rare intentional drop must say so via
/// `HETESIM_IGNORE_STATUS(expr)` with a justification comment.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;
  /// Constructs a status with the given code and message. A `kOk` code with
  /// a message is collapsed to the plain OK status.
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  /// Factory helpers, one per non-OK code.
  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string message);
  [[nodiscard]] static Status NotFound(std::string message);
  [[nodiscard]] static Status AlreadyExists(std::string message);
  [[nodiscard]] static Status OutOfRange(std::string message);
  [[nodiscard]] static Status FailedPrecondition(std::string message);
  [[nodiscard]] static Status IOError(std::string message);
  [[nodiscard]] static Status Internal(std::string message);
  [[nodiscard]] static Status DeadlineExceeded(std::string message);
  [[nodiscard]] static Status ResourceExhausted(std::string message);
  [[nodiscard]] static Status Cancelled(std::string message);

  /// True iff the status carries no error.
  bool ok() const { return state_ == nullptr; }
  /// The status code (`kOk` when `ok()`).
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  /// The diagnostic message (empty when `ok()`).
  const std::string& message() const;

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const { return code() == StatusCode::kFailedPrecondition; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsDeadlineExceeded() const { return code() == StatusCode::kDeadlineExceeded; }
  bool IsResourceExhausted() const { return code() == StatusCode::kResourceExhausted; }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  /// Two statuses compare equal when code and message both match.
  friend bool operator==(const Status& a, const Status& b);

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<State> state_;  // null <=> OK
};

}  // namespace hetesim

/// Propagates a non-OK `Status` to the caller.
#define HETESIM_RETURN_NOT_OK(expr)                   \
  do {                                                \
    ::hetesim::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                        \
  } while (0)

/// Explicitly discards a `Status` or `Result<T>`. The only sanctioned way
/// past `[[nodiscard]]` + `-Werror=unused-result`; every use carries a
/// one-line justification comment (best-effort cleanup, logged-elsewhere,
/// ...). Grep-able, so dropped errors stay auditable.
#define HETESIM_IGNORE_STATUS(expr) static_cast<void>(expr)

#endif  // HETESIM_COMMON_STATUS_H_
