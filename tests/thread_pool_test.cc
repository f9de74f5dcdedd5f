#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace scaddar {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, ScheduledTasksAllRun) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Schedule([&count] { count.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(0, 1000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      touched[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(5, 5, [&](int64_t, int64_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 0);
  // Fewer elements than workers: chunks never exceed the range.
  pool.ParallelFor(0, 2, [&](int64_t lo, int64_t hi) {
    sum.fetch_add(hi - lo);
  });
  EXPECT_EQ(sum.load(), 2);
}

TEST(ThreadPoolTest, ParallelForIsReusable) {
  ThreadPool pool(3);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(0, 97, [&](int64_t lo, int64_t hi) {
      total.fetch_add(hi - lo);
    });
  }
  EXPECT_EQ(total.load(), 20 * 97);
}

TEST(ThreadPoolTest, ParallelForChunksAreDeterministic) {
  // Chunk boundaries depend only on (range, workers) — the planner's
  // byte-identical merge relies on this.
  ThreadPool pool(4);
  for (int round = 0; round < 2; ++round) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> seen;
    pool.ParallelFor(0, 103, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(lo, hi);
    });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0], (std::pair<int64_t, int64_t>{0, 26}));
    EXPECT_EQ(seen[1], (std::pair<int64_t, int64_t>{26, 52}));
    EXPECT_EQ(seen[2], (std::pair<int64_t, int64_t>{52, 78}));
    EXPECT_EQ(seen[3], (std::pair<int64_t, int64_t>{78, 103}));
  }
}

TEST(ThreadPoolTest, ParallelForHandsOutNoEmptyChunks) {
  // (items, workers) -> chunks: ceil(n / ceil(n / min(workers, n))).
  // 4 items on 3 workers are two chunks of two, not three with an empty
  // third; 5 on 4 are three chunks, the last one item.
  for (const auto& [items, workers, chunks] :
       {std::tuple<int64_t, int, int>{4, 3, 2}, {5, 4, 3}}) {
    ThreadPool pool(workers);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> seen;
    pool.ParallelFor(0, items, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(lo, hi);
    });
    EXPECT_EQ(seen.size(), static_cast<size_t>(chunks))
        << items << " items on " << workers << " workers";
    std::sort(seen.begin(), seen.end());
    int64_t next = 0;
    for (const auto& [lo, hi] : seen) {
      EXPECT_LT(lo, hi);
      EXPECT_EQ(lo, next);
      next = hi;
    }
    EXPECT_EQ(next, items);
  }
}

TEST(ThreadPoolTest, ForkJoinCostIsMeasuredPerWidth) {
  ThreadPool pool(4);
  EXPECT_GT(pool.MeasureForkJoinNs(1), 0.0);
  EXPECT_GT(pool.MeasureForkJoinNs(3), 0.0);
}

}  // namespace
}  // namespace scaddar
