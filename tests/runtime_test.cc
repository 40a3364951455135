// Unit tests for the runtime layer: ThreadPool task execution, draining
// and hand-off around a worker's polling window, ParallelFor
// coverage/exception semantics, the inline fallback, and ByteLru, one test
// per operation. Run under ThreadSanitizer and AddressSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/runtime/byte_lru.h"
#include "src/runtime/thread_pool.h"

namespace mapcomp {
namespace runtime {
namespace {

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  // The pool stays usable after a Wait.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WorkSubmittedAroundThePollingWindowAllRuns) {
  // A worker polls the queue for a while after each task, then parks. Work
  // must reach a worker whichever side of that window it arrives on: right
  // away (a poller takes it), later (a parked worker is woken), or just as
  // the poller gives up.
  ThreadPool pool(3);
  const std::chrono::microseconds pauses[] = {
      std::chrono::microseconds(0), std::chrono::microseconds(1900),
      std::chrono::microseconds(2100), std::chrono::microseconds(4000)};
  std::atomic<int> counter{0};
  int expected = 0;
  for (int round = 0; round < 80; ++round) {
    const int tasks = 1 + round % 3;
    for (int t = 0; t < tasks; ++t) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    expected += tasks;
    ASSERT_EQ(counter.load(), expected) << "round " << round;
    std::atomic<int> hits{0};
    ParallelFor(&pool, 6, [&hits](int64_t) { hits.fetch_add(1); },
                /*max_helpers=*/1 + round % 2);
    ASSERT_EQ(hits.load(), 6) << "round " << round;
    std::this_thread::sleep_for(pauses[round % 4]);
  }
}

TEST(ThreadPoolTest, ThreadCountIsClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ParallelForTest, CoversExactlyTheRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  ParallelFor(&pool, static_cast<int64_t>(hits.size()),
              [&hits](int64_t i) { hits[static_cast<size_t>(i)] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<int64_t> order;
  ParallelFor(nullptr, 10, [&order](int64_t i) { order.push_back(i); });
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, EmptyAndNegativeRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&calls](int64_t) { ++calls; });
  ParallelFor(&pool, -5, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, RethrowsFirstExceptionByIndex) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    ParallelFor(&pool, 100, [&completed](int64_t i) {
      if (i == 7) throw std::runtime_error("iteration 7 failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 7 failed");
  }
  // Not every iteration ran (claiming stopped), but the pool is intact.
  EXPECT_LT(completed.load(), 100);
  std::atomic<int> after{0};
  ParallelFor(&pool, 10, [&after](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
}

TEST(ParallelForTest, MaxHelpersZeroRunsInlineInOrder) {
  ThreadPool pool(3);
  std::vector<int64_t> order;
  ParallelFor(&pool, 10, [&order](int64_t i) { order.push_back(i); },
              /*max_helpers=*/0);
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, MaxHelpersCapsLanesButCoversRange) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  ParallelFor(&pool, 200, [&count](int64_t) { count.fetch_add(1); },
              /*max_helpers=*/1);
  EXPECT_EQ(count.load(), 200);
}

TEST(ParallelForTest, NestedOnTheSamePoolDoesNotDeadlock) {
  // The intra-problem elimination scheduler runs ParallelFor inside
  // ComposeMany workers, all on the shared global pool — completion must
  // be tracked per call, not per pool, or the inner call waits forever
  // for its own enclosing task to retire.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(&pool, 4, [&pool, &count](int64_t) {
    ParallelFor(&pool, 8, [&count](int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, NestedExceptionPropagatesThroughBothLevels) {
  ThreadPool pool(2);
  try {
    ParallelFor(&pool, 3, [&pool](int64_t outer) {
      ParallelFor(&pool, 3, [outer](int64_t inner) {
        if (outer == 1 && inner == 1) {
          throw std::runtime_error("inner failure");
        }
      });
    });
    FAIL() << "expected the inner exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner failure");
  }
}

TEST(GlobalPoolTest, IsASingletonWithWorkers) {
  ThreadPool* pool = GlobalPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool, GlobalPool());
  EXPECT_GE(pool->thread_count(), 1);
  std::atomic<int> count{0};
  ParallelFor(pool, 50, [&count](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelForTest, PerIndexWritesAreThreadCountIndependent) {
  auto run = [](int pool_threads) {
    std::vector<int64_t> out(500);
    ThreadPool pool(pool_threads);
    ParallelFor(&pool, static_cast<int64_t>(out.size()), [&out](int64_t i) {
      out[static_cast<size_t>(i)] = i * i;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

TEST(ByteLruTest, InsertThenGetTouchesAndPeekDoesNot) {
  ByteLru<int> lru(3, 0);
  EXPECT_TRUE(lru.Insert("a", 1));
  EXPECT_TRUE(lru.Insert("b", 2));
  EXPECT_TRUE(lru.Insert("c", 3));
  EXPECT_FALSE(lru.Insert("a", 9));  // the incumbent stays
  ASSERT_NE(lru.Get("a"), nullptr);
  EXPECT_EQ(*lru.Get("a"), 1);
  ASSERT_NE(lru.Peek("b"), nullptr);  // b stays least recent
  lru.Insert("d", 4);
  EXPECT_EQ(lru.Peek("b"), nullptr);
  EXPECT_NE(lru.Peek("a"), nullptr);
  EXPECT_EQ(lru.Get("zz"), nullptr);
}

TEST(ByteLruTest, EntryBoundEvictsLeastRecentFirst) {
  ByteLru<int> lru(2, 0);
  lru.Insert("a", 1);
  lru.Insert("b", 2);
  lru.Insert("c", 3);  // evicts a
  EXPECT_EQ(lru.Peek("a"), nullptr);
  lru.Get("b");
  lru.Insert("d", 4);  // evicts c, not the touched b
  EXPECT_EQ(lru.Peek("c"), nullptr);
  EXPECT_NE(lru.Peek("b"), nullptr);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.evictions(), 2u);
}

TEST(ByteLruTest, ByteBoundEvictsTheEntryJustBooked) {
  ByteLru<int> lru(10, 10);
  lru.Insert("a", 1, 3);  // 1 key byte + 3
  lru.Insert("b", 2, 3);
  EXPECT_EQ(lru.bytes(), 8u);
  lru.Book("b", 4);  // 12 > 10: the least recent entry goes first
  EXPECT_EQ(lru.Peek("a"), nullptr);
  EXPECT_EQ(lru.bytes(), 8u);
  lru.Book("b", 5);  // alone and over the bound: b evicts itself
  EXPECT_EQ(lru.Peek("b"), nullptr);
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_EQ(lru.evictions(), 2u);
}

TEST(ByteLruTest, LateBookingOnLiveEntryAndNoOpOnErasedKey) {
  ByteLru<int> lru(10, 0);
  lru.Insert("key", 1);
  EXPECT_EQ(lru.bytes(), 3u);  // the key alone
  EXPECT_TRUE(lru.Book("key", 7));
  EXPECT_EQ(lru.bytes(), 10u);
  lru.Erase("key");
  EXPECT_FALSE(lru.Book("key", 5));
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_EQ(lru.size(), 0u);
}

TEST(ByteLruTest, EraseReleasesBytesWithoutCountingAnEviction) {
  ByteLru<int> lru(10, 0);
  lru.Insert("a", 1, 4);
  lru.Insert("bb", 2, 4);
  EXPECT_TRUE(lru.Erase("a"));
  EXPECT_FALSE(lru.Erase("a"));
  EXPECT_EQ(lru.Get("a"), nullptr);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 6u);
  EXPECT_EQ(lru.evictions(), 0u);
}

TEST(ByteLruTest, PeakWatermarkAndEvictionCounter) {
  ByteLru<int> lru(1, 0);
  lru.Insert("aa", 1, 8);
  EXPECT_EQ(lru.bytes_peak(), 10u);
  lru.Insert("b", 2, 1);  // booked before the entry bound evicts aa
  EXPECT_EQ(lru.bytes(), 2u);
  EXPECT_EQ(lru.bytes_peak(), 12u);
  EXPECT_EQ(lru.evictions(), 1u);
  lru.Erase("b");
  EXPECT_EQ(lru.bytes_peak(), 12u);
}

}  // namespace
}  // namespace runtime
}  // namespace mapcomp
