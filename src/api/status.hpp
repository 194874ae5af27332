// status.hpp — the error model of the public API layer.
//
// Module code underneath the facade throws on programmer error (broken
// invariants, malformed internal state). User input — a device name typed
// on a CLI, a config assembled by a service, an architecture file from disk
// — must not take the process down, so every facade entry point reports
// failures as a `Status` (or a `Result<T>` carrying one) instead of
// throwing across the API boundary.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "core/check.hpp"

namespace hg::api {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,     // malformed user input (bad config value, bad text)
  kNotFound,            // unknown registry key (device / evaluator / strategy)
  kFailedPrecondition,  // valid request, unsupported in this configuration
  kInternal,            // an invariant broke below the facade
  kDeadlineExceeded,    // the request's deadline passed before it could run
  kResourceExhausted,   // admission refused: a bounded queue is full
  kCancelled,           // abandoned before running (e.g. caller disconnected)
  kUnavailable,         // transport failure (peer gone, connection broken)
};

std::string status_code_name(StatusCode code);

class Status {
 public:
  Status() = default;  // OK

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    return ok() ? "OK" : status_code_name(code_) + ": " + message_;
  }

  bool operator==(const Status&) const = default;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::string status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

/// A value or the Status explaining its absence. Accessing `value()` on an
/// error Result is a programmer error: it throws std::invalid_argument
/// naming the Status, in every build type — check `ok()` first.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok())
      status_ = Status::Internal("Result constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    HG_CHECK(ok(), "value() on " + status_.to_string());
    return *value_;
  }
  const T& value() const& {
    HG_CHECK(ok(), "value() on " + status_.to_string());
    return *value_;
  }
  T&& value() && {
    HG_CHECK(ok(), "value() on " + status_.to_string());
    return *std::move(value_);
  }

  /// value() with a fallback for the error case.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  static constexpr char kCheckScope[] = "api::Result: ";

  Status status_;  // OK iff value_ holds a T
  std::optional<T> value_;
};

}  // namespace hg::api
