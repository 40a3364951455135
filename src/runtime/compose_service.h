#ifndef MAPCOMP_RUNTIME_COMPOSE_SERVICE_H_
#define MAPCOMP_RUNTIME_COMPOSE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/cancel.h"
#include "src/compose/compose.h"
#include "src/runtime/byte_lru.h"
#include "src/runtime/served_result.h"
#include "src/serve/serve_types.h"

namespace mapcomp {
namespace runtime {

/// Point-in-time counters of a ComposeService.
struct ServiceStats {
  uint64_t hits = 0;        ///< Submits answered by the cache (incl. joining
                            ///< a computation already in flight and
                            ///< TryServeCached probe hits)
  uint64_t misses = 0;      ///< Submits that started a computation
  uint64_t evictions = 0;   ///< cache entries dropped by the LRU bounds
  int64_t in_flight = 0;    ///< computations started but not yet finished
  uint64_t completed = 0;   ///< computations finished
  uint64_t failed = 0;      ///< computations that finished with an error
  /// Submissions whose interest was withdrawn before their computation
  /// finished: an explicit Handle::Cancel, a handle abandoned (every copy
  /// destroyed) while the work was still in flight, a Submit whose deadline
  /// had already expired, or a computation that finished interrupted by its
  /// deadline with nobody having cancelled explicitly. Counted per
  /// submission, so the serving tier's invariant `cancelled >= timeouts`
  /// holds even when timed-out requests had joined a shared computation.
  uint64_t cancelled = 0;
  uint64_t cache_entries = 0;  ///< entries currently cached
  /// Bytes of cached entries: every key from insert on, plus ApproxBytes
  /// and reply bytes once the entry's computation completed.
  uint64_t cache_bytes = 0;
  uint64_t cache_bytes_peak = 0;  ///< high-water mark of cache_bytes

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  std::string ToString() const;
};

struct ComposeServiceOptions {
  /// Options applied to submissions that don't carry their own. The result
  /// cache is keyed by the resolved options *and* the problem (see
  /// ComposeService::CacheKey), so one service can host mixed-options
  /// traffic (see ServeRequest::WithOptions) without serving a result
  /// computed under different options.
  ComposeOptions compose;
  /// Completed results retained, least-recently-submitted evicted first.
  /// 0 disables caching (every Submit computes).
  size_t cache_capacity = 128;
  /// Byte bound on cached entries (key + ApproxBytes + reply bytes sum).
  /// 0 = entries-only bound. When exceeded, least-recently-used entries are
  /// evicted until the sum fits — so capacity can be expressed the way a
  /// registry deployment sizes memory, not just as an entry count.
  size_t cache_bytes_capacity = 0;
};

/// The success-or-Status outcome of one served composition —
/// StatusOr<const ServedResult&>-shaped access. A failed computation
/// (Compose threw, e.g. on a pathological input) travels as a Status; it
/// never rethrows across the service boundary, so wire-facing callers can
/// map it onto serve::WireStatus and in-process callers onto Result<T>
/// plumbing. value()/operator* abort with a diagnostic when called on an
/// error, mirroring mapcomp::Result.
class ServedOutcome {
 public:
  using ResultPtr = std::shared_ptr<const ServedResult>;

  ServedOutcome() : status_(StatusCode::kInternal, "empty outcome") {}
  ServedOutcome(ResultPtr result, std::shared_ptr<const std::string> reply)
      : result_(std::move(result)), reply_bytes_(std::move(reply)) {}
  explicit ServedOutcome(Status status) : status_(std::move(status)) {}

  bool ok() const { return result_ != nullptr; }
  const Status& status() const { return status_; }

  /// Shared ownership of the result; null on error. Valid independently of
  /// cache eviction.
  const ResultPtr& shared() const { return result_; }

  const ServedResult& value() const {
    if (result_ == nullptr) {
      std::cerr << "ServedOutcome::value() on error: " << status_.ToString()
                << "\n";
      std::abort();
    }
    return *result_;
  }
  const ServedResult& operator*() const { return value(); }
  const ServedResult* operator->() const { return &value(); }

  /// ServeReply::SerializeResultTo of the result, written once at
  /// completion; wire replies append it verbatim. Only on ok().
  const std::string& reply_bytes() const { return *reply_bytes_; }

 private:
  ResultPtr result_;
  std::shared_ptr<const std::string> reply_bytes_;
  Status status_;
};

/// A long-lived composition server: clients Submit serve::ServeRequests
/// and get async handles; results are computed on the process-wide
/// GlobalPool() and memoized in an LRU cache keyed by the request's
/// canonical wire bytes (CacheKey), so a hot problem is composed once and
/// served from memory afterwards. Concurrent submissions of the same problem join the
/// in-flight computation instead of duplicating it. Thread-safe; one
/// instance is meant to outlive many client requests, and
/// serve::ComposeServer puts this interface on a network socket.
///
/// Do not call Handle::Wait from inside a GlobalPool task: a worker
/// blocking on work that needs a worker can starve a small pool. Clients —
/// CLI loops, benchmark drivers, request threads — wait; pool tasks don't.
class ComposeService {
 public:
  using ResultPtr = std::shared_ptr<const ServedResult>;

  // Cancellation plumbing (defined in the .cc): one CancelPlumb per
  // computation, one Joiner per submission attached to it.
  struct CancelPlumb;
  struct Joiner;

  /// Async handle for one submission. Copyable; all copies share the same
  /// eventual outcome. Valid independently of cache eviction.
  ///
  /// Every submission registers *interest* in its computation. Interest is
  /// withdrawn by Cancel() or by destroying the last copy of the handle
  /// before the outcome is ready (abandonment); once every interested
  /// submission has withdrawn, the computation's cancel token fires and
  /// the compose pipeline unwinds at its next check point — no zombie
  /// lanes burning pool time for a result nobody will read. Waiting for
  /// (or observing) a ready outcome and then dropping the handle is NOT a
  /// cancellation.
  class Handle {
   public:
    Handle() = default;

    /// Blocks until the composition finishes. Never throws: a failed
    /// computation is a Status inside the outcome. By value, so nothing
    /// refers into the future of a temporary handle.
    ServedOutcome Wait() const { return future_.get(); }
    /// Shared ownership of the result (blocks like Wait); null when the
    /// computation failed.
    ResultPtr Result() const { return future_.get().shared(); }
    /// True once the outcome is available without blocking.
    bool Ready() const {
      return future_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    }
    /// Waits until the outcome is ready or `deadline` passes; true when
    /// ready. A false return does not cancel — pair with Cancel().
    bool WaitUntil(common::Deadline deadline) const {
      if (!deadline.has_deadline()) {
        future_.wait();
        return true;
      }
      return future_.wait_until(deadline.when()) == std::future_status::ready;
    }
    /// Withdraws this submission's interest in the computation (idempotent
    /// across all copies of this handle). The computation itself is only
    /// cancelled once no other submission still wants it — a dedup join
    /// cancelling its own timed-out request must not kill the shared work.
    /// Returns true when interest was withdrawn while the computation was
    /// still in flight (the submission is counted in
    /// ServiceStats::cancelled); false when the cancel lost the race
    /// against completion — nothing is counted, the handle stays valid,
    /// and Wait() returns the completed outcome. The return value is what
    /// lets the serving tier keep `cancelled >= timeouts` exact: a
    /// dispatcher whose cancel lost the race serves the landed result
    /// instead of claiming a timeout that cancelled nothing.
    bool Cancel() const;
    /// True when Submit answered from the cache (ready or in flight)
    /// rather than starting a new computation.
    bool cache_hit() const { return cache_hit_; }

   private:
    friend class ComposeService;
    std::shared_future<ServedOutcome> future_;
    std::shared_ptr<Joiner> joiner_;  // null for cache-probe / expired stubs
    bool cache_hit_ = false;
  };

  explicit ComposeService(ComposeServiceOptions options = {});
  /// Blocks until every in-flight computation has finished.
  ~ComposeService();

  ComposeService(const ComposeService&) = delete;
  ComposeService& operator=(const ComposeService&) = delete;

  /// The one submission entry point: enqueues the request's problem (or
  /// joins/serves a cached computation) under the request's options when
  /// it carries them, the service default otherwise. Never blocks on
  /// composition work. Cache entries are keyed by CacheKey(request), so
  /// the same problem submitted under different options is computed and
  /// cached per variant — never served stale across option sets (a
  /// mutated registry counts as a new variant via its state uid). A
  /// preset options.eliminate.keys signature is copied into the
  /// computation, so it may die the moment Submit returns; a non-default
  /// options.eliminate.registry is borrowed and must outlive the
  /// computation (registries are long-lived by design). A composition
  /// whose constraints nest deeper than kMaxNestingDepth, which no reply
  /// could carry back through the parser, fails with kResourceExhausted
  /// and is not cached.
  Handle Submit(serve::ServeRequest request);

  /// Submit with an end-to-end deadline: the computation runs under a
  /// cancel token that fires when `deadline` passes, so it unwinds
  /// cooperatively instead of computing a result nobody can use. An
  /// already-expired deadline short-circuits: the handle comes back ready
  /// with kDeadlineExceeded, nothing is queued, cached, or counted as a
  /// miss — only ServiceStats::cancelled grows. A submission that joins a
  /// computation already in flight adopts that computation's deadline (its
  /// own is still enforceable by the caller via WaitUntil + Cancel). A
  /// request carrying its own ComposeOptions cancel token keeps that
  /// token's cancel source and runs under the *earlier* of the two
  /// deadlines; such a computation is beyond Handle::Cancel's reach — the
  /// caller owns its source.
  Handle Submit(serve::ServeRequest request, common::Deadline deadline);

  /// The request's canonical wire bytes under its resolved options (the
  /// default for an options-less request), minus request_id, name and
  /// deadline_ms.
  std::string CacheKey(const serve::ServeRequest& request) const {
    return request.CacheKey(request.has_options ? request.options
                                                : options_.compose);
  }

  /// Admission probe: the completed cached outcome under `key`, else an
  /// error outcome. A `raw` key, read off an unparsed body, is served only
  /// from a wire_ok entry. A found entry is touched; a hit counts as a hit.
  /// Never blocks, never computes. TryServeCached probes a request value.
  ServedOutcome ProbeKey(const std::string& key, bool raw);
  ResultPtr TryServeCached(const serve::ServeRequest& request) {
    return ProbeKey(CacheKey(request), /*raw=*/false).shared();
  }

  /// The service's default ComposeOptions (what an option-less request
  /// composes under).
  const ComposeOptions& default_options() const { return options_.compose; }

  ServiceStats Stats() const;

 private:
  struct CacheEntry {
    std::shared_future<ServedOutcome> future;
    /// Joining submissions attach their interest here, so dedup joins
    /// share one computation-wide cancel decision.
    std::shared_ptr<CancelPlumb> plumb;
    /// Distinguishes this entry from a later one under the same key (the
    /// original may be evicted and the key recomputed while the original
    /// computation is still running).
    uint64_t id = 0;
    /// A parsed request created or joined this entry. Raw probes need it:
    /// SerializeTo accepts values (max_rounds = 0) that Parse refuses.
    bool wire_ok = false;
  };

  /// `failed` = the computation ended without a servable result for a
  /// reason other than a fired cancel token (an interrupted run counts as
  /// completed, never failed); `extra_cancelled` carries the
  /// deadline-fired-with-no-explicit-cancel correction.
  void RecordCompletion(bool failed, uint64_t extra_cancelled);
  /// One submission withdrew interest in a still-running computation.
  /// Called from CancelPlumb under its liveness fence (see the .cc).
  void BumpCancelled();
  void ReleaseOutstanding();
  /// Drops the cache entry `key` if it still is the one created with
  /// `id` — called when a computation fails, so the Status is handed to
  /// the waiting handles but never served to future submitters.
  void EvictFailed(const std::string& key, uint64_t id);
  /// Books `bytes` against the entry `key`/`id` once its computation
  /// finished, then enforces the byte bound.
  void RecordEntryBytes(const std::string& key, uint64_t id, size_t bytes);

  const ComposeServiceOptions options_;
  mutable std::mutex mu_;
  std::condition_variable idle_;
  ServiceStats stats_;
  int64_t outstanding_ = 0;  ///< tasks submitted to the pool, not finished
  uint64_t next_entry_id_ = 0;
  /// Keyed by CacheKey; owns the evictions and byte counters of stats_.
  ByteLru<CacheEntry> cache_;
};

}  // namespace runtime
}  // namespace mapcomp

#endif  // MAPCOMP_RUNTIME_COMPOSE_SERVICE_H_
