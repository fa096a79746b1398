#ifndef HETESIM_COMMON_RESULT_H_
#define HETESIM_COMMON_RESULT_H_

#include <utility>
#include <variant>

#include "common/check.h"
#include "common/status.h"

namespace hetesim {

/// \brief Value-or-error return type for fallible operations that produce a
/// value (the Arrow `Result<T>` idiom).
///
/// A `Result<T>` holds either a `T` or a non-OK `Status` — never both and
/// never neither. Constructing a `Result` from an OK status is a programming
/// error and aborts (an OK status carries no value to return).
///
/// \code
///   Result<MetaPath> mp = MetaPath::Parse(schema, "A-P-V-C");
///   if (!mp.ok()) return mp.status();
///   Use(*mp);
/// \endcode
/// Like `Status`, `Result` is `[[nodiscard]]`: dropping a returned
/// `Result<T>` is a compile error under `-Werror=unused-result`; use
/// `HETESIM_IGNORE_STATUS` (status.h) for the rare intentional drop.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Wraps a value (implicit, so functions can `return value;`).
  Result(T value) : repr_(std::in_place_index<0>, std::move(value)) {}  // NOLINT
  /// Wraps an error status (implicit, so functions can `return status;`).
  Result(Status status) : repr_(std::in_place_index<1>, std::move(status)) {  // NOLINT
    HETESIM_CHECK(!std::get<1>(repr_).ok())
        << "Result<T> constructed from an OK Status carries no value";
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  /// True iff a value is present.
  bool ok() const { return repr_.index() == 0; }

  /// The status: OK when a value is present, the stored error otherwise.
  [[nodiscard]] Status status() const { return ok() ? Status::OK() : std::get<1>(repr_); }

  /// Accessors. Calling these on an error result aborts.
  const T& value() const& {
    HETESIM_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<0>(repr_);
  }
  T& value() & {
    HETESIM_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<0>(repr_);
  }
  T&& value() && {
    HETESIM_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<0>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace hetesim

/// Evaluates `expr` (a `Result<T>`), propagating any error; on success binds
/// the value to `lhs`. `lhs` may declare a new variable.
#define HETESIM_ASSIGN_OR_RETURN(lhs, expr)                    \
  HETESIM_ASSIGN_OR_RETURN_IMPL_(                              \
      HETESIM_CONCAT_(_result_, __LINE__), lhs, expr)

#define HETESIM_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return tmp.status();                  \
  lhs = std::move(tmp).value()

#define HETESIM_CONCAT_(a, b) HETESIM_CONCAT_IMPL_(a, b)
#define HETESIM_CONCAT_IMPL_(a, b) a##b

#endif  // HETESIM_COMMON_RESULT_H_
