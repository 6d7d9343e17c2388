// A small fixed-size thread pool, and the call-local pool built on it.
//
// The simulator itself is single-threaded for determinism. The pool fans
// independent work out across cores: seeded runs in benches and examples
// (parameter sweeps, min/avg/max over many runs), federation's regions,
// query batches, the analyzer's walk of every route, and the depth bound's
// per-vertex flow solves. Whoever uses it merges the results in a fixed
// order, so the merged output never depends on scheduling. A pool's jobs
// must not wait on the same pool (a nested parallel_for can deadlock once
// every worker waits); the analyzer and the depth bound run inside
// federation's workers and therefore use a CallPool of their own per call.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace sanmap::common {

/// Fixed-size worker pool executing std::function<void()> jobs FIFO.
class ThreadPool {
 public:
  /// Creates `threads` workers (0 means default_size()).
  explicit ThreadPool(std::size_t threads = 0);

  /// The default worker count: hardware concurrency, at least 1.
  [[nodiscard]] static std::size_t default_size();

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a job and returns a future for its result. Exceptions thrown by
  /// the job are captured in the future.
  template <typename F>
  auto submit(F&& job) -> std::future<std::invoke_result_t<F>>
      SANMAP_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(job));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Exceptions from any invocation are rethrown (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      SANMAP_EXCLUDES(mutex_);

 private:
  void worker_loop() SANMAP_EXCLUDES(mutex_);

  /// Immutable after construction (the destructor joins; size() only reads).
  std::vector<std::thread> workers_;
  Mutex mutex_;
  /// condition_variable_any so it can wait on the annotated Mutex directly.
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ SANMAP_GUARDED_BY(mutex_);
  bool stopping_ SANMAP_GUARDED_BY(mutex_) = false;
};

/// The worker threads of one call. Local to the call, never process-wide:
/// its users run inside FederatedMapper's pool workers, and a nested
/// parallel_for on a shared pool would deadlock. The pool starts on first
/// use, so a call whose work fits in one piece starts no thread.
class CallPool {
 public:
  CallPool() = default;
  CallPool(const CallPool&) = delete;
  CallPool& operator=(const CallPool&) = delete;

  /// Runs fn(i) for i in [0, n) and waits for all of them: inline when
  /// n <= 1, otherwise on a pool of ThreadPool's default size.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  std::optional<ThreadPool> pool_;
};

}  // namespace sanmap::common
