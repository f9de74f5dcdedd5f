#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace scaddar {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  SCADDAR_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    SCADDAR_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutting down and drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t, int64_t)>& body) {
  SCADDAR_CHECK(begin <= end);
  const int64_t n = end - begin;
  if (n == 0) {
    return;
  }
  const int64_t parts = std::min<int64_t>(num_threads(), n);
  const int64_t chunk_size = (n + parts - 1) / parts;
  const int64_t chunks = (n + chunk_size - 1) / chunk_size;

  std::mutex done_mu;
  std::condition_variable done_cv;
  int64_t pending = chunks - 1;  // Chunk 0 runs on the calling thread.

  for (int64_t t = 1; t < chunks; ++t) {
    const int64_t lo = begin + t * chunk_size;
    const int64_t hi = std::min(end, lo + chunk_size);
    Schedule([&, lo, hi] {
      body(lo, hi);
      // Notify while holding the lock: done_cv lives on the caller's stack,
      // and the caller may destroy it as soon as it can observe pending == 0.
      std::lock_guard<std::mutex> lock(done_mu);
      --pending;
      done_cv.notify_one();
    });
  }
  body(begin, std::min(end, begin + chunk_size));
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return pending == 0; });
}

double ThreadPool::MeasureForkJoinNs(int workers) {
  SCADDAR_CHECK(workers >= 1 && workers < num_threads());
  constexpr int kSamples = 7;
  const auto empty = [](int64_t, int64_t) {};
  // Warm-up: the workers may not have reached their first wait yet.
  ParallelFor(0, workers + 1, empty);
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ParallelFor(0, workers + 1, empty);
    samples.push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2,
                   samples.end());
  return samples[kSamples / 2];
}

}  // namespace scaddar
