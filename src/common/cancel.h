#ifndef MAPCOMP_COMMON_CANCEL_H_
#define MAPCOMP_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace mapcomp {
namespace common {

/// A monotonic-clock deadline. Wall-clock jumps (NTP, suspend/resume) must
/// never fire or un-fire a deadline, so everything here is steady_clock.
/// A default-constructed Deadline is infinite: `expired()` is always false
/// and the check compiles down to a single bool test.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// A deadline `ms` milliseconds from now.
  static Deadline After(int64_t ms) {
    Deadline d;
    d.has_deadline_ = true;
    d.when_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  /// An absolute steady-clock deadline (e.g. admission time + budget).
  static Deadline At(Clock::time_point when) {
    Deadline d;
    d.has_deadline_ = true;
    d.when_ = when;
    return d;
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point when() const { return when_; }

  bool expired() const { return has_deadline_ && Clock::now() >= when_; }

  /// The earlier of two deadlines (infinite is the identity).
  static Deadline Min(const Deadline& a, const Deadline& b) {
    if (!a.has_deadline_) return b;
    if (!b.has_deadline_) return a;
    return At(a.when_ < b.when_ ? a.when_ : b.when_);
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point when_{};
};

/// Cheap cooperative-cancellation poll object, copied by value into
/// ComposeOptions / EvalOptions and observed at plan-defined points (round
/// boundaries, each symbol's elimination, eval nodes). A token fires
/// for one of two reasons, which surface as distinct StatusCodes:
///
///   - its CancelSource was cancelled      -> StatusCode::kCancelled
///   - its Deadline passed                 -> StatusCode::kDeadlineExceeded
///
/// A default-constructed token never fires; polling it is a null check
/// plus a bool test, cheap enough for per-node / per-chunk granularity.
/// Determinism contract: the token carries no schedule state — a run that
/// completes without the token firing is byte-identical to a run with no
/// token at all, because every check site only *reads* the token.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(std::shared_ptr<const std::atomic<bool>> cancelled,
              Deadline deadline)
      : cancelled_(std::move(cancelled)), deadline_(deadline) {}

  /// A token that only fires on deadline expiry (no cancel source).
  static CancelToken WithDeadline(Deadline deadline) {
    return CancelToken(nullptr, deadline);
  }

  bool can_fire() const {
    return cancelled_ != nullptr || deadline_.has_deadline();
  }

  bool cancelled() const {
    return cancelled_ && cancelled_->load(std::memory_order_relaxed);
  }

  bool expired() const { return deadline_.expired(); }

  /// True once the token has fired for either reason. This is THE poll.
  bool Fired() const { return cancelled() || expired(); }

  /// kCancelled / kDeadlineExceeded when fired, kOk otherwise. Explicit
  /// cancellation wins the tie so an abandoned-and-late request reads as
  /// cancelled, not coincidentally timed out.
  StatusCode FiredCode() const {
    if (cancelled()) return StatusCode::kCancelled;
    if (expired()) return StatusCode::kDeadlineExceeded;
    return StatusCode::kOk;
  }

  /// A Status describing why the token fired, tagged with the check site
  /// (`where`), or OK when it has not fired.
  Status StatusAt(const char* where) const {
    StatusCode code = FiredCode();
    if (code == StatusCode::kOk) return Status::OK();
    if (code == StatusCode::kCancelled) {
      return Status::Cancelled(std::string("cancelled at ") + where);
    }
    return Status::DeadlineExceeded(std::string("deadline exceeded at ") +
                                    where);
  }

  /// This token with its deadline tightened to the earlier of its own and
  /// `d`; the cancel source (if any) is shared. How a service layers its
  /// own budget on top of a caller-owned token.
  CancelToken Tightened(Deadline d) const {
    return CancelToken(cancelled_, Deadline::Min(deadline_, d));
  }

  const Deadline& deadline() const { return deadline_; }

 private:
  std::shared_ptr<const std::atomic<bool>> cancelled_;
  Deadline deadline_;
};

/// Owner side of a cancellation edge: holds the flag, mints tokens.
/// Thread-safe; Cancel() is idempotent.
class CancelSource {
 public:
  CancelSource() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { cancelled_->store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_->load(std::memory_order_relaxed);
  }

  CancelToken token(Deadline deadline = Deadline::Infinite()) const {
    return CancelToken(cancelled_, deadline);
  }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

}  // namespace common
}  // namespace mapcomp

#endif  // MAPCOMP_COMMON_CANCEL_H_
