#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace epg {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> hits(17, 0);  // no atomics needed: everything is inline
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, SubmitThenDestroyNeverStrandsATask) {
  // A worker that has just seen no queued task must not sleep through the
  // notify of a submit() landing right then, nor through the destructor's
  // stop; either one stranded the pool in ~ThreadPool. The window is a few
  // instructions wide, so this builds and tears down many small pools with
  // a varying delay before each submit (ctest's TIMEOUT turns a hang into
  // a failure).
  for (int round = 0; round < 4000; ++round) {
    std::atomic<int> done{0};
    {
      ThreadPool pool(1 + round % 2);
      for (int spin = 0; spin < round % 7; ++spin) std::this_thread::yield();
      pool.submit([&] { done.fetch_add(1); });
      if (round % 3 == 0) pool.submit([&] { done.fetch_add(1); });
    }
    ASSERT_EQ(done.load(), round % 3 == 0 ? 2 : 1) << "round " << round;
  }
}

}  // namespace
}  // namespace epg
