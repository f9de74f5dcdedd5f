#ifndef SCADDAR_UTIL_THREAD_POOL_H_
#define SCADDAR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace scaddar {

/// A minimal fixed-size worker pool. It has two users: `ClusterServer`
/// ticks the server shards whose work pays for a worker's wake-up through
/// `ParallelFor` (`MeasureForkJoinNs` prices the wake-up), and
/// `SyncFileBackend` `Schedule`s one drain task per disk. Deliberately
/// small surface: tasks are fire-and-forget closures, and `ParallelFor` is
/// chunked static partitioning with a join. No work stealing, no
/// priorities: static chunks keep the partition deterministic and the
/// synchronization trivial to reason about (and to race-check).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution on some worker.
  void Schedule(std::function<void()> task);

  /// Runs `body(lo, hi)` over `[begin, end)` split into contiguous chunks
  /// of `c = ceil(n / min(num_threads(), n))` items, `n = end - begin`:
  /// chunk `t` covers `[begin + t*c, min(end, begin + (t+1)*c))`, and there
  /// are ceil(n / c) chunks, at most one per worker and none empty. Blocks
  /// until every chunk finished. The partition — and anything built per
  /// chunk and merged in chunk order — is deterministic for a given
  /// `(n, num_threads)`. The calling thread executes chunk 0 itself, so a
  /// call wakes one worker per chunk after the first.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body);

  /// The wall time in nanoseconds of a fork/join that wakes `workers`
  /// workers (1 <= `workers` < `num_threads()`): the median of a few empty
  /// `ParallelFor`s over `workers + 1` items, after a warm-up call. Call it
  /// from the thread that will fork.
  double MeasureForkJoinNs(int workers);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace scaddar

#endif  // SCADDAR_UTIL_THREAD_POOL_H_
