#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

namespace mapcomp {
namespace runtime {

namespace {

/// How long a worker that just finished a task, and a ParallelFor caller
/// whose helpers still run, poll before parking. Long enough to span the
/// serial stretch between two soundness checks' instance loops (0.2-0.4 ms
/// on a 4-core x86 VM), short enough that an idle pool goes quiet at once.
constexpr std::chrono::microseconds kSpinBeforeParking{2000};

/// Polls `done` until it holds or kSpinBeforeParking has passed, yielding
/// the CPU on each poll so a spinning thread never starves a runnable one.
/// Returns whether `done` held.
template <typename Done>
bool SpinUntil(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforeParking;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    queued_.fetch_add(1);
    // A spinning worker takes one queued task without a wake-up. It reads
    // the queue under mu_ after it stops spinning, so a task it leaves is
    // never lost.
    wake = static_cast<int64_t>(queue_.size()) > spinning_.load();
  }
  if (wake) work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool* GlobalPool() {
  // Leaked like the global interner: worker threads must never be joined
  // from a static destructor racing other teardown. The pool's queue is
  // empty whenever no ParallelFor/Submit caller is active, so leaking it
  // leaks only idle threads.
  static ThreadPool* pool =
      new ThreadPool(std::max(1, ThreadPool::HardwareThreads() - 1));
  return pool;
}

void ThreadPool::WorkerLoop() {
  bool ran_task = false;
  for (;;) {
    int idle = 0;
    if (ran_task && spinning_.compare_exchange_strong(idle, 1)) {
      SpinUntil([this] { return queued_.load() > 0 || shutdown_.load(); });
      spinning_.fetch_sub(1);
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.fetch_sub(1);
    }
    ran_task = true;
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    all_done_.notify_all();
  }
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& body, int max_helpers) {
  if (n <= 0) return;
  if (pool == nullptr || n == 1 || max_helpers == 0) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Heap-shared because helper tasks may still sit in the pool queue after
  // this call returns (they find nothing left to claim and exit); the
  // closures keep the state — including the body copy — alive. The hot
  // path is lock-free: claims come from one relaxed counter, retirements
  // decrement another (acq_rel, so the last decrement has seen every
  // lane's writes), and the mutex is touched only to record an error and
  // for the final notify handshake. An erroring lane atomically exchanges
  // the claim counter to n and retires the never-to-be-claimed tail in
  // one step (exchange makes the tail size exact even against racing
  // claims). The caller waits for remaining == 0 without ever touching
  // ThreadPool::Wait — which is what makes nested calls on a shared pool
  // deadlock-free.
  struct Shared {
    std::mutex mu;
    std::condition_variable done;
    std::function<void(int64_t)> body;
    int64_t n = 0;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> remaining{0};
    std::exception_ptr first_error;
    int64_t first_error_index = -1;
  };
  auto shared = std::make_shared<Shared>();
  shared->body = body;
  shared->n = n;
  shared->remaining.store(n, std::memory_order_relaxed);

  auto retire = [](const std::shared_ptr<Shared>& s, int64_t count) {
    if (s->remaining.fetch_sub(count, std::memory_order_acq_rel) == count) {
      // Last retirement: pair with the waiter's mutex so the notify
      // cannot slip between its predicate check and its sleep.
      std::lock_guard<std::mutex> lock(s->mu);
      s->done.notify_all();
    }
  };
  auto drain = [shared, retire]() {
    for (;;) {
      int64_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared->n) return;
      try {
        shared->body(i);
        retire(shared, 1);
      } catch (...) {
        // Stop claiming everywhere; `prev` counts the claims that did
        // happen, so exactly the unclaimed tail [min(prev,n), n) is
        // retired here — claimed iterations on other lanes still run and
        // retire themselves.
        int64_t prev =
            shared->next.exchange(shared->n, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(shared->mu);
          if (shared->first_error == nullptr ||
              i < shared->first_error_index) {
            shared->first_error = std::current_exception();
            shared->first_error_index = i;
          }
        }
        retire(shared, 1 + (shared->n - std::min(prev, shared->n)));
      }
    }
  };

  int helpers = pool->thread_count();
  if (max_helpers >= 0) helpers = std::min(helpers, max_helpers);
  helpers = static_cast<int>(
      std::min<int64_t>(helpers, n - 1));  // no lane without an iteration
  for (int t = 0; t < helpers; ++t) pool->Submit(drain);

  drain();
  if (!SpinUntil([&shared] {
        return shared->remaining.load(std::memory_order_acquire) == 0;
      })) {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->done.wait(lock, [&shared] {
      return shared->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (shared->first_error != nullptr) {
    std::rethrow_exception(shared->first_error);
  }
}

}  // namespace runtime
}  // namespace mapcomp
