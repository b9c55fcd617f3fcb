// Shared work-stealing thread pool for the sweep/campaign executors.
//
// The previous executors spawned a fresh std::thread fleet for every sweep;
// a campaign that runs thousands of small sweeps paid thread creation and
// teardown each time, and nested drivers (adaptive tuning loops)
// multiplied it. This pool is created once per process
// (ThreadPool::Shared()), keeps one worker per hardware thread parked on a
// condition variable, and hands out work in batched index chunks.
//
// Design:
//  - each worker owns a deque; submitted tasks are distributed round-robin,
//    a worker pops its own deque LIFO and steals FIFO from the others when
//    empty, so bursts submitted together stay cache-warm on one worker
//    while idle workers still drain the backlog;
//  - ParallelFor is the executor entry point: the *calling* thread
//    participates in the loop, which both saves a context switch for small
//    totals and makes nested ParallelFor calls deadlock-free by
//    construction (the caller can always make progress on its own);
//  - determinism: ParallelFor imposes no ordering — callers must make
//    `fn(i)` independent of execution order (the sweep drivers derive
//    per-index seeds and write results into per-index slots, which is what
//    keeps sweeps bit-identical under any worker count or chunking).
//
// All cross-thread state is guarded by mutexes/atomics; the pool is
// TSan-clean (exercised by tests/determinism_test.cpp and the perf
// invariance suite under -DWSNLINK_SANITIZE=thread).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsnlink::util {

/// A fixed-size work-stealing thread pool.
class ThreadPool {
 public:
  /// Creates `workers` parked worker threads (at least 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool used by the sweep/campaign executors. Created on
  /// first use with one worker per hardware thread (minimum 2, so the
  /// stealing path is exercised even on single-core hosts).
  static ThreadPool& Shared();

  [[nodiscard]] unsigned WorkerCount() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Runs `fn(i)` for every i in [0, total) with bounded parallelism.
  ///
  /// Work is handed out in contiguous `chunk`-sized index ranges through a
  /// shared cursor. At most `max_parallel` threads are active (the caller
  /// plus up to max_parallel-1 pool workers); 0 means "pool width". The
  /// call returns when every index has been processed. `fn` is invoked
  /// concurrently and must be thread-safe; results must not depend on
  /// execution order.
  ///
  /// If `fn` throws, the call rethrows the exception of the lowest index
  /// that threw — the one a sequential loop would raise — after every
  /// started chunk has finished; indices above it may be left unrun.
  void ParallelFor(std::size_t total, std::size_t chunk, unsigned max_parallel,
                   const std::function<void(std::size_t)>& fn);

 private:
  struct Queue {
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(unsigned self);
  bool PopOrSteal(unsigned self, std::function<void()>& task);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Queue> queues_;
  std::vector<std::thread> workers_;
  unsigned next_queue_ = 0;
  bool stopping_ = false;
};

}  // namespace wsnlink::util
