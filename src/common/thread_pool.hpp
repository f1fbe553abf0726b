// A small fixed-size thread pool with a deterministic parallel_for.
//
// Work in mphpc is embarrassingly parallel at coarse grain (runs of the
// simulator, trees of a forest, feature columns during split search), so a
// simple shared-queue pool suffices. parallel_for partitions the index
// range statically into contiguous chunks so results are independent of
// scheduling order; any reductions are performed by the caller over
// per-chunk buffers in fixed order, keeping every parallel path
// bit-deterministic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mphpc {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. A task that throws does not take the process down:
  /// the first uncaught exception is captured and rethrown to the next
  /// wait_idle() caller (later ones are dropped — the first failure is
  /// the diagnosis; the rest are usually its echo).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any submitted task raised since the
  /// last wait_idle() (clearing it). parallel_for/parallel_chunks deliver
  /// their body's exceptions at their own join point instead.
  void wait_idle();

  /// Runs body(i) for every i in [begin, end), partitioned into contiguous
  /// chunks across the pool (plus the calling thread). Blocks until done.
  /// `body` must be safe to invoke concurrently for distinct indices.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Runs body(chunk_index, chunk_begin, chunk_end) over a static partition
  /// of [begin, end) into at most size()+1 chunks. Useful when the caller
  /// wants per-chunk accumulators reduced in fixed order afterwards.
  /// Returns the number of chunks used.
  ///
  /// Safe to call from inside a pool task (nested parallelism): the caller
  /// claims and runs chunks itself alongside the workers, so it only ever
  /// waits for chunks already running and cannot deadlock behind occupied
  /// workers. It never runs another caller's queued task.
  ///
  /// A body that throws (on any chunk, worker or caller) does not
  /// terminate the process: every chunk still runs to completion or
  /// failure, then one of the thrown exceptions (the first captured) is
  /// rethrown here to the submitter. The pool stays usable afterwards.
  std::size_t parallel_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

  /// Process-wide shared pool (lazily constructed, hardware concurrency).
  static ThreadPool& shared();

 private:
  void worker_loop();

  /// Runs `task`, capturing an escaping exception into first_exception_
  /// (first writer wins) instead of letting it unwind into the worker.
  void run_task_capturing(const std::function<void()>& task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
  /// First exception thrown by a submit()ed task since the last
  /// wait_idle(); guarded by mutex_. parallel_chunks exceptions use their
  /// own per-call slot and never land here.
  std::exception_ptr first_exception_;
};

}  // namespace mphpc
