#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

namespace wsnlink::util {

ThreadPool::ThreadPool(unsigned workers) {
  const unsigned count = std::max(1u, workers);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  // wsnstatic:allow(lp-isolation): process-wide worker pool; it runs every worker thread but holds no simulation state itself
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
      lock.lock();
      continue;
    }
    if (stopping_) return;
    cv_.wait(lock);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelFor(std::size_t total, unsigned max_parallel,
                             const std::function<void(std::size_t)>& fn) {
  if (total == 0) return;
  const std::size_t width =
      max_parallel == 0 ? workers_.size() + 1 : max_parallel;
  const std::size_t helpers =
      std::min({width - 1, total - 1, workers_.size()});
  if (helpers == 0) {
    for (std::size_t i = 0; i < total; ++i) fn(i);
    return;
  }

  // Shared drain state: helpers and the caller take indices from the
  // cursor until it passes `total`. Completion is tracked per index, not
  // per helper: the caller returns as soon as every index has run, even if
  // some helpers never got scheduled (they wake up later, find the cursor
  // exhausted, and exit without touching `fn`). That property makes nested
  // ParallelFor calls deadlock-free — a caller that drains every index
  // itself never waits on the pool.
  //
  // A throw from `fn` is kept if its index is the lowest that threw so
  // far; the index still counts as done, so the caller's wait ends and it
  // rethrows once no participant can call `fn` again. Indices above the
  // lowest failure cannot hold a lower throwing index and are skipped;
  // every other index runs, so the caller sees the exception a sequential
  // loop would raise, whatever the width.
  struct Drain {
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failed{std::numeric_limits<std::size_t>::max()};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::mutex error_mutex;
    std::exception_ptr error;  // guarded by error_mutex
  };
  auto drain = std::make_shared<Drain>();

  auto run = [drain, total, &fn] {
    for (std::size_t i = drain->cursor.fetch_add(1); i < total;
         i = drain->cursor.fetch_add(1)) {
      if (i < drain->failed.load(std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(drain->error_mutex);
          if (i < drain->failed.load(std::memory_order_relaxed)) {
            drain->error = std::current_exception();
            drain->failed.store(i, std::memory_order_relaxed);
          }
        }
      }
      if (drain->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        // Last index done: wake the caller. The lock pairs the notify with
        // the caller's wait so the wakeup cannot be lost.
        std::lock_guard<std::mutex> lock(drain->done_mutex);
        drain->done_cv.notify_one();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.insert(tasks_.end(), helpers, run);
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();

  run();

  {
    std::unique_lock<std::mutex> lock(drain->done_mutex);
    drain->done_cv.wait(lock, [&drain, total] {
      return drain->done.load(std::memory_order_acquire) == total;
    });
  }
  // Moved out so the exception is released on this thread, not by a
  // helper that drops the last reference to `drain` later.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(drain->error_mutex);
    error = std::move(drain->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace wsnlink::util
