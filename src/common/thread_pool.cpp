#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/contract.hpp"

namespace mphpc {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc > 0 ? hc : 4;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MPHPC_EXPECTS(task != nullptr);
  {
    const std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr err = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::run_task_capturing(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    const std::lock_guard lock(mutex_);
    if (first_exception_ == nullptr) first_exception_ = std::current_exception();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    run_task_capturing(task);
    {
      const std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_chunks(begin, end,
                  [&body](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) body(i);
                  });
}

namespace {

/// State one parallel_chunks call shares with the helper tasks it queues.
/// Helpers hold it by shared_ptr, so one that is dequeued after the call
/// returned finds no chunk left and touches nothing else.
struct ChunkCall {
  std::atomic<std::size_t> next{0};  ///< the next unclaimed chunk
  std::mutex mutex;                  ///< guards remaining and error
  std::condition_variable done;
  std::size_t remaining = 0;         ///< chunks not yet finished
  std::exception_ptr error;          ///< the first exception a chunk threw
};

}  // namespace

std::size_t ThreadPool::parallel_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (begin >= end) return 0;
  const std::size_t n = end - begin;
  const std::size_t max_chunks = size() + 1;  // workers + calling thread
  const std::size_t chunks = std::min(n, max_chunks);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;

  const auto call = std::make_shared<ChunkCall>();
  call->remaining = chunks;
  // Claims and runs chunks until none is unclaimed. Chunk c covers
  // [lo, hi); the first `rem` chunks get base+1 items. `body` lives in the
  // caller's frame: it is only reached through a claimed chunk, and the
  // caller does not return while a claimed chunk is unfinished. A body
  // that throws is captured, so every chunk still runs, and the first
  // exception is rethrown to the caller below.
  const auto* fn = &body;
  const auto run_chunks = [call, fn, chunks, begin, base, rem] {
    for (std::size_t c = call->next++; c < chunks; c = call->next++) {
      const std::size_t lo = begin + c * base + std::min(c, rem);
      const std::size_t hi = lo + base + (c < rem ? 1 : 0);
      std::exception_ptr err;
      try {
        (*fn)(c, lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      const std::lock_guard lock(call->mutex);
      if (err != nullptr && call->error == nullptr) call->error = err;
      if (--call->remaining == 0) call->done.notify_one();
    }
  };

  // The caller claims chunks too, so it never waits on a chunk that is
  // still queued: nested calls from inside pool tasks cannot deadlock, and
  // the caller never runs another caller's queued task (a serve daemon's
  // long refit tasks share the pool with its request batches).
  for (std::size_t c = 1; c < chunks; ++c) submit(run_chunks);
  run_chunks();
  std::unique_lock lock(call->mutex);
  call->done.wait(lock, [&] { return call->remaining == 0; });
  // Take the exception out of the shared state, so that a late helper
  // releasing the state never destroys the object this caller handles.
  if (std::exception_ptr err = std::exchange(call->error, nullptr)) {
    lock.unlock();
    std::rethrow_exception(err);
  }
  return chunks;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mphpc
