#ifndef MAPCOMP_COMMON_STATUS_H_
#define MAPCOMP_COMMON_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

namespace mapcomp {

/// Error codes used across the library. Modeled on the Arrow/RocksDB Status
/// idiom: fallible operations return Status or Result<T>, never throw.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kUnsupported,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  // Append-only from here (serve::WireStatus mirrors these codes and its
  // numerics are wire-pinned; renumbering would silently remap old frames).
  kOverloaded,         // admission shed: never admitted, safe to retry
  kDeadlineExceeded,   // deadline fired: admitted work was cut short
  kCancelled,          // explicit cancel (handle abandoned or Cancel())
};

/// Stable human-readable name of a code ("OK", "InvalidArgument", ...).
/// Shared by Status::ToString and the wire-facing serve::WireStatus table so
/// a code never prints under two different names.
const char* StatusCodeName(StatusCode code);

/// A success-or-error outcome carrying a code and a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  /// True for the two codes a fired CancelToken produces. Interrupted work
  /// is a first-class partial outcome, not a computation failure: the
  /// service counts it separately and never caches it.
  bool IsInterrupt() const {
    return code_ == StatusCode::kDeadlineExceeded ||
           code_ == StatusCode::kCancelled;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      std::cerr << "Result constructed from OK status\n";
      std::abort();
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return CheckedRef(); }
  T& value() & { return CheckedMutableRef(); }
  /// By value: a reference would dangle once the temporary Result dies,
  /// as in `for (const X& x : F().value())`.
  T value() && { return std::move(CheckedMutableRef()); }

  const T& operator*() const& { return CheckedRef(); }
  T& operator*() & { return CheckedMutableRef(); }
  const T* operator->() const { return &CheckedRef(); }

  /// Returns the value, or `fallback` on error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  const T& CheckedRef() const {
    if (!value_.has_value()) {
      std::cerr << "Result::value() on error: " << status_.ToString() << "\n";
      std::abort();
    }
    return *value_;
  }
  T& CheckedMutableRef() {
    if (!value_.has_value()) {
      std::cerr << "Result::value() on error: " << status_.ToString() << "\n";
      std::abort();
    }
    return *value_;
  }

  std::optional<T> value_;
  Status status_;
};

/// Propagates an error Status from a fallible call.
#define MAPCOMP_RETURN_IF_ERROR(expr)       \
  do {                                      \
    ::mapcomp::Status _st = (expr);         \
    if (!_st.ok()) return _st;              \
  } while (0)

#define MAPCOMP_CONCAT_IMPL(x, y) x##y
#define MAPCOMP_CONCAT(x, y) MAPCOMP_CONCAT_IMPL(x, y)

/// Evaluates `rexpr` (a Result<T>), propagating its error or assigning its
/// value to `lhs`.
#define MAPCOMP_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  auto MAPCOMP_CONCAT(_res_, __LINE__) = (rexpr);                   \
  if (!MAPCOMP_CONCAT(_res_, __LINE__).ok())                        \
    return MAPCOMP_CONCAT(_res_, __LINE__).status();                \
  lhs = std::move(MAPCOMP_CONCAT(_res_, __LINE__)).value()

}  // namespace mapcomp

#endif  // MAPCOMP_COMMON_STATUS_H_
