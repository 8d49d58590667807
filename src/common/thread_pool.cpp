#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace qucad {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 4 : hw;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (count == 1 || workers_.size() <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by done_mutex
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::condition_variable done_cv;
  std::mutex done_mutex;

  const std::size_t num_chunks = std::min(count, workers_.size());
  auto chunk_runner = [&, count] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    // Count and signal under the lock the waiter checks: the caller cannot
    // observe completion (and return, destroying this stack-local state)
    // until this chunk has released done_mutex and touches nothing else.
    std::lock_guard lock(done_mutex);
    if (++done == num_chunks) done_cv.notify_one();
  };

  {
    std::lock_guard lock(mutex_);
    for (std::size_t c = 0; c < num_chunks; ++c) tasks_.push(chunk_runner);
  }
  cv_.notify_all();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return done == num_chunks; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(count, body);
}

}  // namespace qucad
