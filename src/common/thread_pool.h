// Fixed-size worker pool for the embarrassingly-parallel loops in the
// FL simulator (per-party local training, evaluation chunks). Tasks are
// pulled off a shared atomic index so uneven party sizes balance
// themselves; the calling thread participates, and a pool of size 1
// degenerates to a plain inline loop (no threads, no locking).
//
// Determinism contract: parallel_for(n, fn) invokes fn(i) exactly once
// for every i in [0, n) with no ordering guarantee — callers that need
// bit-identical results across thread counts must write to disjoint,
// index-addressed slots and do any order-sensitive reduction afterwards
// on one thread (this is how fl::FederationSession keeps rounds
// reproducible).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flips::common {

class ThreadPool {
 public:
  /// Maps a requested thread count to an effective one: 0 means "use
  /// the hardware concurrency" (at least 1).
  static std::size_t resolve_threads(std::size_t requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }

  explicit ThreadPool(std::size_t num_threads)
      : size_(resolve_threads(num_threads)) {
    workers_.reserve(size_ > 0 ? size_ - 1 : 0);
    for (std::size_t t = 1; t < size_; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  std::size_t size() const { return size_; }

  /// Runs fn(i) for every i in [0, n); returns once all calls have
  /// completed and every helping worker has left the job. fn must not
  /// throw. Not reentrant (no parallel_for from inside fn).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_fn_ = &fn;
      job_n_ = n;
      next_.store(0, std::memory_order_relaxed);
      done_ = 0;
      ++generation_;
    }
    wake_cv_.notify_all();
    run_current_job(fn, n);
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return done_ == job_n_ && active_ == 0; });
    job_fn_ = nullptr;
  }

 private:
  void run_current_job(const std::function<void(std::size_t)>& fn,
                       std::size_t n) {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i);
      std::lock_guard<std::mutex> lock(mutex_);
      if (++done_ == job_n_) idle_cv_.notify_all();
    }
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t n = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock, [&] {
          return stop_ || (generation_ != seen_generation &&
                           job_fn_ != nullptr);
        });
        if (stop_) return;
        seen_generation = generation_;
        fn = job_fn_;
        n = job_n_;
        ++active_;
      }
      run_current_job(*fn, n);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
      }
      // parallel_for also waits for active_ == 0, so the job's fn (a
      // reference to the caller's stack) stays alive until every
      // helper is out of run_current_job.
      idle_cv_.notify_all();
    }
  }

  const std::size_t size_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t done_ = 0;
  std::size_t active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace flips::common
