#include "common/thread_pool.hpp"

#include <algorithm>

namespace sanmap::common {

std::size_t ThreadPool::default_size() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = default_size();
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        cv_.wait(mutex_);
      }
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void CallPool::run(std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  if (n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  if (!pool_) {
    pool_.emplace();
  }
  pool_->parallel_for(n, fn);
}

}  // namespace sanmap::common
