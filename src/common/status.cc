#include "common/status.h"

namespace hetesim {

namespace {
const std::string& EmptyString() {
  // Leaked singleton: immune to static destruction order.
  static const std::string* const kEmpty = new std::string();  // hetesim-lint: allow(no-naked-new)
  return *kEmpty;
}
}  // namespace

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kNotImplemented:
      return "Not implemented";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kDeadlineExceeded:
      return "Deadline exceeded";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    state_ = std::make_unique<State>(State{code, std::move(message)});
  }
}

Status::Status(const Status& other) {
  if (other.state_ != nullptr) {
    state_ = std::make_unique<State>(*other.state_);
  }
}

Status& Status::operator=(const Status& other) {
  if (this != &other) {
    state_ = other.state_ == nullptr ? nullptr : std::make_unique<State>(*other.state_);
  }
  return *this;
}

Status Status::InvalidArgument(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status Status::NotFound(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status Status::AlreadyExists(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}
Status Status::OutOfRange(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}
Status Status::FailedPrecondition(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
Status Status::IOError(std::string message) {
  return Status(StatusCode::kIOError, std::move(message));
}
Status Status::Internal(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}
Status Status::DeadlineExceeded(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
Status Status::ResourceExhausted(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status Status::Cancelled(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}

const std::string& Status::message() const {
  return ok() ? EmptyString() : state_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  if (!message().empty()) {
    out += ": ";
    out += message();
  }
  return out;
}

bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

}  // namespace hetesim
