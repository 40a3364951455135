#include "src/runtime/compose_service.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/parser/parser.h"
#include "src/runtime/thread_pool.h"

namespace mapcomp {
namespace runtime {

/// Computation-wide cancellation state, shared by every submission joined
/// to one computation plus the pool task that runs it.
///
/// Liveness fence: Release() may run from an arbitrary thread (a handle
/// destructor) at an arbitrary time, yet it bumps service stats. That is
/// safe because it only touches the service after observing `done ==
/// false` under `mu` — and `done` is set (under `mu`) by the pool task
/// *before* it calls ReleaseOutstanding(), so `!done` implies the
/// computation still holds an outstanding_ reference and ~ComposeService
/// is still blocked. A release that finds `done` true touches nothing but
/// the plumb itself. Lock order: plumb mu before service mu_, never the
/// reverse (joins under mu_ use only the atomic counter).
struct ComposeService::CancelPlumb {
  explicit CancelPlumb(ComposeService* s) : service(s) {}

  ComposeService* const service;
  common::CancelSource source;
  std::atomic<int64_t> joiners{0};

  std::mutex mu;
  bool done = false;     ///< pool task finished (any way); set before
                         ///< ReleaseOutstanding
  bool counted = false;  ///< some submission already counted as cancelled

  /// One submission withdraws. The last one out fires the source. Returns
  /// true when the withdrawal happened while the computation was still in
  /// flight (and was counted); false when it lost the race to completion.
  bool Release() {
    int64_t left = joiners.fetch_sub(1, std::memory_order_acq_rel) - 1;
    std::lock_guard<std::mutex> lock(mu);
    if (done) return false;
    counted = true;
    service->BumpCancelled();
    if (left <= 0) source.Cancel();
    return true;
  }

  /// Pool-task side: marks the computation done. Returns the cancelled
  /// correction — 1 when the run was interrupted (deadline fired inside
  /// the compose pipeline) but no submission ever counted, 0 otherwise.
  uint64_t Finish(bool interrupted) {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    if (interrupted && !counted) {
      counted = true;
      return 1;
    }
    return 0;
  }
};

/// One submission's interest in a computation: +1 joiner on attach,
/// released exactly once by the first of Handle::Cancel and the last
/// handle copy's destructor.
struct ComposeService::Joiner {
  explicit Joiner(std::shared_ptr<CancelPlumb> p) : plumb(std::move(p)) {
    plumb->joiners.fetch_add(1, std::memory_order_acq_rel);
  }
  ~Joiner() { Release(); }

  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  bool Release() {
    if (!released.exchange(true, std::memory_order_acq_rel)) {
      return plumb->Release();
    }
    return false;
  }

  const std::shared_ptr<CancelPlumb> plumb;
  std::atomic<bool> released{false};
};

bool ComposeService::Handle::Cancel() const {
  return joiner_ != nullptr && joiner_->Release();
}

void ComposeService::BumpCancelled() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.cancelled;
}

std::string ServiceStats::ToString() const {
  std::string out = "compose-service: ";
  out += std::to_string(hits) + " hits, " + std::to_string(misses) +
         " misses (" + std::to_string(HitRate() * 100.0) + "% hit rate), " +
         std::to_string(evictions) + " evictions, " +
         std::to_string(cache_entries) + " cached (" +
         std::to_string(cache_bytes) + " bytes, peak " +
         std::to_string(cache_bytes_peak) + "), " +
         std::to_string(in_flight) + " in flight, " +
         std::to_string(completed) + " completed, " +
         std::to_string(failed) + " failed, " +
         std::to_string(cancelled) + " cancelled\n";
  return out;
}

ComposeService::ComposeService(ComposeServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_bytes_capacity) {}

ComposeService::~ComposeService() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return outstanding_ == 0; });
}

void ComposeService::RecordCompletion(bool failed,
                                      uint64_t extra_cancelled) {
  std::lock_guard<std::mutex> lock(mu_);
  --stats_.in_flight;
  ++stats_.completed;
  stats_.cancelled += extra_cancelled;
  if (failed) ++stats_.failed;
}

void ComposeService::ReleaseOutstanding() {
  std::lock_guard<std::mutex> lock(mu_);
  --outstanding_;
  idle_.notify_all();
}

void ComposeService::EvictFailed(const std::string& key, uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntry* entry = cache_.Peek(key);
  if (entry != nullptr && entry->id == id) cache_.Erase(key);
}

void ComposeService::RecordEntryBytes(const std::string& key, uint64_t id,
                                      size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntry* entry = cache_.Peek(key);
  // The byte bound may evict the entry whose completion just booked the
  // bytes — that is fine: its handles stay valid, only the memo is lost.
  if (entry != nullptr && entry->id == id) cache_.Book(key, bytes);
}

ServedOutcome ComposeService::ProbeKey(const std::string& key, bool raw) {
  if (options_.cache_capacity == 0) return {};
  std::lock_guard<std::mutex> lock(mu_);
  // One lookup, and it touches: a found entry the probe cannot serve is
  // queued and then joined by Submit, which would touch it anyway.
  CacheEntry* entry = cache_.Get(key);
  if (entry == nullptr || (raw && !entry->wire_ok)) return {};
  if (entry->future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return {};  // in flight: admission must queue (joining is cheap, but
                // the reply still needs a waiter)
  }
  ServedOutcome outcome = entry->future.get();
  if (!outcome.ok()) return {};
  ++stats_.hits;
  return outcome;
}

ComposeService::Handle ComposeService::Submit(serve::ServeRequest request) {
  return Submit(std::move(request), common::Deadline::Infinite());
}

ComposeService::Handle ComposeService::Submit(serve::ServeRequest request,
                                              common::Deadline deadline) {
  // Expired-at-submit short-circuit: work that is already dead on arrival
  // never reaches the pool, the cache, or the miss/in-flight counters —
  // only `cancelled`. This is what makes the serving tier's queue-aging
  // cancel exact: a request that aged past its budget while queued costs
  // one counter bump, not one composition.
  if (deadline.expired()) {
    std::promise<ServedOutcome> ready;
    ready.set_value(ServedOutcome(Status::DeadlineExceeded(
        "deadline expired before composition started")));
    Handle handle;
    handle.future_ = ready.get_future().share();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cancelled;
    return handle;
  }

  const bool caching = options_.cache_capacity > 0;
  const ComposeOptions& options =
      request.has_options ? request.options : options_.compose;
  std::string key = caching ? CacheKey(request) : std::string();

  auto promise = std::make_shared<std::promise<ServedOutcome>>();
  std::shared_ptr<CancelPlumb> plumb;
  uint64_t entry_id = 0;
  Handle handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (caching) {
      if (CacheEntry* entry = cache_.Get(key)) {
        ++stats_.hits;
        if (request.parsed()) entry->wire_ok = true;
        handle.future_ = entry->future;
        // Joining attaches interest to the running (or finished)
        // computation: only the atomic joiner count is touched here, so
        // the plumb-mu-before-mu_ lock order is never inverted.
        handle.joiner_ = std::make_shared<Joiner>(entry->plumb);
        handle.cache_hit_ = true;
        return handle;
      }
    }
    ++stats_.misses;
    ++stats_.in_flight;
    ++outstanding_;
    entry_id = ++next_entry_id_;
    plumb = std::make_shared<CancelPlumb>(this);
    handle.future_ = promise->get_future().share();
    handle.joiner_ = std::make_shared<Joiner>(plumb);
    if (caching) {
      // Evicting an entry still in flight is allowed (its handles stay
      // valid; only the dedup/memo reference is lost), so a capacity
      // smaller than the concurrent working set degrades to recomputation,
      // never to blocking.
      cache_.Insert(key, CacheEntry{handle.future_, plumb, entry_id,
                                    /*wire_ok=*/request.parsed()});
    }
  }

  // A preset key signature is copied into the task: Submit returns
  // immediately, and a caller's stack-allocated Signature must be free to
  // die before the pool ever runs the composition. (A parsed wire request
  // owns its keys via owned_keys; copying unifies both cases.)
  std::shared_ptr<const Signature> keys_copy;
  ComposeOptions task_options = options;
  if (task_options.eliminate.keys != nullptr) {
    keys_copy = std::make_shared<Signature>(*task_options.eliminate.keys);
    task_options.eliminate.keys = keys_copy.get();
  }
  // The computation's token: a caller-provided token keeps its own cancel
  // source (the caller owns it; Handle::Cancel can't reach it) tightened
  // to the earlier deadline; otherwise the plumb's source carries both the
  // submit deadline and the joiner-driven cancel edge.
  if (task_options.cancel.can_fire()) {
    task_options.cancel = task_options.cancel.Tightened(deadline);
  } else {
    task_options.cancel = plumb->source.token(deadline);
  }
  GlobalPool()->Submit(
      [this, promise, plumb, caching, entry_id, key, keys_copy,
       options = std::move(task_options),
       problem = std::move(request.problem)]() mutable {
        // An outcome that is not a servable result reaches every handle
        // already joined to this computation, but is never cached and never
        // served to future submitters. Finish() is the liveness fence — it
        // must run before ReleaseOutstanding on every path.
        auto refuse = [&](Status status, bool interrupted) {
          if (caching) EvictFailed(key, entry_id);
          uint64_t extra = plumb->Finish(interrupted);
          // Interrupted runs are neither successes nor reproducible
          // failures: they count in `cancelled`, never in `failed`.
          RecordCompletion(/*failed=*/!interrupted, extra);
          promise->set_value(ServedOutcome(std::move(status)));
          ReleaseOutstanding();
        };
        ResultPtr result;
        std::shared_ptr<std::string> reply;
        try {
          CompositionResult full = Compose(problem, options);
          if (!full.interrupt.ok()) {
            // The run unwound on a fired token: partial residuals are not
            // a servable result.
            refuse(full.interrupt, /*interrupted=*/true);
            return;
          }
          // Compose can nest deeper than it was given. A reply is read back
          // by the parser, so a result past its bound could never be read.
          int depth = 0;
          for (const Constraint& c : full.constraints) {
            depth = std::max({depth, c.lhs->depth(), c.rhs->depth()});
          }
          if (depth > kMaxNestingDepth) {
            refuse(Status::ResourceExhausted(
                       "composed constraints nest " + std::to_string(depth) +
                       " levels deep, past the reply bound of " +
                       std::to_string(kMaxNestingDepth)),
                   /*interrupted=*/false);
            return;
          }
          // Slim before caching: constraints + residuals + warnings and
          // the precomputed full fingerprint are retained; per-round stat
          // payloads are dropped (they would dominate a registry-scale
          // cache).
          uint64_t extra = plumb->Finish(/*interrupted=*/false);
          RecordCompletion(/*failed=*/false, extra);
          result = std::make_shared<ServedResult>(
              ServedResult::FromResult(full));
          // Serialized once; every wire reply for this entry appends it.
          reply = std::make_shared<std::string>();
          serve::ServeReply::SerializeResultTo(*result, reply.get());
        } catch (...) {
          // A failure is a Status, not a rethrow.
          Status failure = Status::Internal("composition failed");
          try {
            std::rethrow_exception(std::current_exception());
          } catch (const std::exception& e) {
            failure = Status::Internal(std::string("composition failed: ") +
                                       e.what());
          } catch (...) {
          }
          refuse(std::move(failure), /*interrupted=*/false);
          return;
        }
        // Ordering matters twice: stats — completion counters AND entry
        // bytes — before fulfillment (a client that just Wait()ed must see
        // itself counted as completed and the entry's bytes booked), and
        // the outstanding release after it (the destructor may return the
        // moment outstanding_ hits zero, and by then every handle must
        // already be Ready).
        if (caching) {
          RecordEntryBytes(key, entry_id,
                           result->ApproxBytes() + reply->size());
        }
        promise->set_value(ServedOutcome(std::move(result), std::move(reply)));
        ReleaseOutstanding();
      });
  return handle;
}

ServiceStats ComposeService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.evictions = cache_.evictions();
  out.cache_entries = cache_.size();
  out.cache_bytes = cache_.bytes();
  out.cache_bytes_peak = cache_.bytes_peak();
  return out;
}

}  // namespace runtime
}  // namespace mapcomp
