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
  queues_.resize(count);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
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

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[next_queue_].tasks.push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  cv_.notify_one();
}

bool ThreadPool::PopOrSteal(unsigned self, std::function<void()>& task) {
  // Own queue first, newest-first: chunks submitted together run
  // back-to-back on the same worker. Then sweep the other queues
  // oldest-first (classic steal direction).
  if (!queues_[self].tasks.empty()) {
    task = std::move(queues_[self].tasks.back());
    queues_[self].tasks.pop_back();
    return true;
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    Queue& victim = queues_[(self + offset) % queues_.size()];
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned self) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    std::function<void()> task;
    if (PopOrSteal(self, task)) {
      lock.unlock();
      task();
      lock.lock();
      continue;
    }
    if (stopping_) return;
    cv_.wait(lock);
  }
}

void ThreadPool::ParallelFor(std::size_t total, std::size_t chunk,
                             unsigned max_parallel,
                             const std::function<void(std::size_t)>& fn) {
  if (total == 0) return;
  if (chunk == 0) chunk = 1;
  const unsigned width = max_parallel == 0 ? WorkerCount() + 1 : max_parallel;
  const std::size_t chunks = (total + chunk - 1) / chunk;
  const unsigned helpers = static_cast<unsigned>(std::min<std::size_t>(
      width > 1 ? width - 1 : 0, std::min<std::size_t>(chunks, WorkerCount())));

  if (helpers == 0 || total <= chunk) {
    for (std::size_t i = 0; i < total; ++i) fn(i);
    return;
  }

  // Shared drain state: helpers and the caller grab chunk indices from the
  // cursor until exhausted. Completion is tracked per *chunk*, not per
  // helper task: the caller returns as soon as every chunk has run, even if
  // some helper tasks never got scheduled (they wake up later, find the
  // cursor exhausted, and exit without touching `fn`). That property makes
  // nested ParallelFor calls deadlock-free — a caller that drains every
  // chunk itself never waits on the pool.
  //
  // A throw from `fn` ends only its own chunk and is kept if its index is
  // the lowest that threw so far; the chunk still counts as done, so the
  // caller's wait ends and it rethrows once no participant can call `fn`
  // again. Chunks above the lowest failed chunk cannot hold a lower
  // throwing index and are skipped; every other chunk runs, so the caller
  // sees the exception a sequential loop would raise, whatever the width.
  struct Drain {
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done_chunks{0};
    std::atomic<std::size_t> failed_chunk{
        std::numeric_limits<std::size_t>::max()};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::mutex error_mutex;
    std::exception_ptr error;  // guarded by error_mutex
    std::size_t error_index = 0;  // guarded by error_mutex
  };
  auto drain = std::make_shared<Drain>();

  auto run_chunks = [drain, total, chunk, chunks, &fn] {
    for (std::size_t c = drain->cursor.fetch_add(1); c < chunks;
         c = drain->cursor.fetch_add(1)) {
      if (c < drain->failed_chunk.load(std::memory_order_relaxed)) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, total);
        for (std::size_t i = begin; i < end; ++i) {
          try {
            fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(drain->error_mutex);
            if (!drain->error || i < drain->error_index) {
              drain->error = std::current_exception();
              drain->error_index = i;
              drain->failed_chunk.store(c, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
      if (drain->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          chunks) {
        // Last chunk done: wake the caller. The lock pairs the notify with
        // the caller's wait so the wakeup cannot be lost.
        std::lock_guard<std::mutex> lock(drain->done_mutex);
        drain->done_cv.notify_one();
      }
    }
  };

  for (unsigned h = 0; h < helpers; ++h) Submit(run_chunks);

  run_chunks();

  {
    std::unique_lock<std::mutex> lock(drain->done_mutex);
    drain->done_cv.wait(lock, [&drain, chunks] {
      return drain->done_chunks.load(std::memory_order_acquire) == chunks;
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
