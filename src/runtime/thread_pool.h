#ifndef MAPCOMP_RUNTIME_THREAD_POOL_H_
#define MAPCOMP_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mapcomp {
namespace runtime {

/// A fixed-size worker pool with a FIFO task queue. Tasks are plain
/// `void()` closures; error handling is the closure's job (the library is
/// Status-based — see ParallelFor for how exceptions from task bodies are
/// surfaced). The destructor drains nothing: it waits for already-submitted
/// tasks to finish, then joins the workers.
///
/// A worker that has just finished a task polls the queue for a short
/// while (kSpinBeforeParking in thread_pool.cc, yielding its CPU on every
/// poll) before it parks on the condition variable; one worker at a time
/// does so. Back-to-back fork-join calls — a soundness check's instances,
/// one check after another — then find a helper already awake instead of
/// paying a futex wake-up (and, on a virtual machine, the host's wake-up
/// of an idle vCPU) each time, whose cost varies far more than the work.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  /// Must not be called from a pool worker (a task waiting for its own
  /// pool to drain counts itself as in flight and never returns) — tasks
  /// that need to join sub-work should use ParallelFor, which tracks its
  /// own completion.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency with a >= 1 floor.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int64_t in_flight_ = 0;  ///< queued + currently executing tasks
  std::atomic<int64_t> queued_{0};  ///< queue_.size(), for lock-free polls
  std::atomic<int> spinning_{0};    ///< workers polling instead of parked
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;
};

/// The lazily-created process-wide pool, sized so that one helper per
/// remaining hardware thread is available to whoever asks first
/// (HardwareThreads() - 1 workers, floor 1). Shared by ComposeMany, the
/// soundness check and ComposeService — per-call parallelism is capped by
/// each caller's `jobs` via ParallelFor's `max_helpers`, so sharing one
/// pool never over-subscribes the machine the way one pool per batch did.
/// Never destroyed before exit; safe to call from any thread, including
/// the pool's own workers (nested ParallelFor is supported, see below).
ThreadPool* GlobalPool();

/// Runs `body(i)` for every i in [0, n), spreading iterations across up to
/// `max_helpers` of the pool's workers (all of them when < 0) plus the
/// calling thread. Iterations are claimed from a shared counter, so
/// scheduling is dynamic but the set of executed iterations is exactly
/// [0, n) regardless of thread count — callers that write only to
/// per-index state get thread-count-independent results. Blocks until all
/// iterations finish, polling for a while first like a worker between
/// tasks. With a null pool iterations run inline, in order, on the calling
/// thread; with k helpers there are up to k+1 lanes.
///
/// Completion is tracked per call (not via ThreadPool::Wait), so nesting a
/// ParallelFor inside a task of the same pool cannot deadlock: the inner
/// call's helpers are opportunistic, and its calling lane drains every
/// iteration itself if no helper is free.
///
/// If any iteration throws, the lowest-index exception is rethrown on the
/// calling thread after all lanes stop claiming new iterations; remaining
/// claimed iterations still complete.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& body,
                 int max_helpers = -1);

}  // namespace runtime
}  // namespace mapcomp

#endif  // MAPCOMP_RUNTIME_THREAD_POOL_H_
