// Shared thread pool for the sweep, contention and serve executors.
//
// The pool is created once per process (ThreadPool::Shared()) and keeps N
// workers parked on one condition variable, so a campaign that runs
// thousands of small sweeps never pays thread creation per sweep.
//
// Design:
//  - one mutex-guarded queue of tasks; every worker pops from its front;
//  - Submit queues one fire-and-forget task (wsnlinkd's misses: the poll
//    loop hands each one over and goes on serving);
//  - ParallelFor queues up to max_parallel - 1 helpers, the *calling*
//    thread participates, and every participant takes one index at a time
//    from a shared atomic cursor. The call returns once every index has
//    run, whether or not its helpers were ever scheduled, so a caller that
//    drains the cursor alone never waits on the pool: nested and
//    concurrent calls cannot deadlock;
//  - determinism: ParallelFor imposes no ordering — callers must make
//    `fn(i)` independent of execution order (the sweep drivers derive
//    per-index seeds and write results into per-index slots, which is what
//    keeps sweeps bit-identical under any worker count).
//
// All cross-thread state is guarded by mutexes/atomics; the pool is
// TSan-clean (exercised by the Sweep, Determinism and ServeServer suites
// under -DWSNLINK_SANITIZE=thread).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsnlink::util {

/// A fixed-size thread pool with one shared task queue.
class ThreadPool {
 public:
  /// Creates `workers` parked worker threads (at least 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool used by the sweep, contention and serve
  /// executors. Created on first use with one worker per hardware thread
  /// (minimum 2).
  static ThreadPool& Shared();

  /// Worker threads in the pool.
  [[nodiscard]] unsigned Workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Queues `task` to run once on a worker and returns at once; nothing
  /// waits for it. The task must not throw (an escaping exception
  /// terminates the process, as on a std::thread), and what it refers to
  /// must outlive it.
  void Submit(std::function<void()> task);

  /// Runs `fn(i)` for every i in [0, total) with bounded parallelism.
  ///
  /// At most `max_parallel` threads call `fn` (the caller plus up to
  /// max_parallel-1 pool workers); 0 means the pool's width plus the
  /// caller. Each takes the next unrun index from a shared cursor. The call
  /// returns when every index has been processed. `fn` is invoked
  /// concurrently and must be thread-safe; results must not depend on
  /// execution order.
  ///
  /// If `fn` throws, the call rethrows the exception of the lowest index
  /// that threw — the one a sequential loop would raise — after every
  /// started index has finished; indices above it may be left unrun.
  void ParallelFor(std::size_t total, unsigned max_parallel,
                   const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mutex_
  std::vector<std::thread> workers_;
  bool stopping_ = false;  // guarded by mutex_
};

}  // namespace wsnlink::util
