#ifndef CROWDJOIN_COMMON_THREAD_POOL_H_
#define CROWDJOIN_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace crowdjoin {

/// \brief Fixed-size worker pool executing submitted tasks FIFO.
///
/// The pool underlies every parallel component in the library: the
/// round-based parallel labeler, the sharded simjoin, and the two users of
/// the process-wide `SharedPool()`: streaming datagen, which generates
/// record blocks ahead of the reader, and the machine step
/// (`GenerateCandidates`), which prepares, joins and scores on it. Design
/// points:
///
///  * `num_threads == 0` is a valid degenerate pool: tasks run inline on
///    the submitting thread, so callers never need a separate code path.
///  * Exceptions thrown by a task are captured into the `std::future`
///    returned by `Submit` and rethrown on `get()`.
///  * Destruction is graceful: tasks already queued are still executed
///    before the workers join. Work is never silently dropped.
///
/// Thread-safe: any thread may call `Submit` concurrently.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Values < 1 create an inline pool that
  /// executes tasks on the caller's thread inside `Submit`.
  explicit ThreadPool(int num_threads);

  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`. The returned future completes when the task has run
  /// and rethrows anything the task threw.
  std::future<void> Submit(std::function<void()> fn);

  /// `std::thread::hardware_concurrency()` clamped to at least 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  /// A queued task plus its enqueue timestamp (obs::NowNs(); 0 when the
  /// metrics registry was disabled at submit time, so the wait-time
  /// histogram reads no clock on the disabled path).
  struct QueuedTask {
    std::packaged_task<void()> task;
    int64_t enqueue_ns = 0;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// \brief The process-wide pool of `ThreadPool::HardwareThreads()` workers,
/// created on first use and kept for the life of the process.
///
/// Library code that has no thread option of its own (block-ahead datagen,
/// the materializing machine step) runs here, so a process holds one set of
/// workers, and with them one set of glibc per-thread malloc arenas: a pool
/// per caller raised peak RSS by about a third.
///
/// The rule that keeps it deadlock-free: **a task running on the shared
/// pool must never wait on the shared pool** — not on a future it submits
/// there, and not through a call (such as `GenerateCandidates` or a
/// `ParallelMap` over this pool) that does so. Every worker blocked that way
/// is one fewer to run the queue it waits for. Threads outside the pool may
/// submit and wait freely, concurrently with each other.
ThreadPool& SharedPool();

/// \brief Computes `fn(0) .. fn(n - 1)` across the pool and returns the
/// results *by index*, independent of execution interleaving.
///
/// This index-stable merge is what makes callers deterministic: as long as
/// `fn(i)` itself depends only on `i` (not on the order in which other
/// indices run), the returned vector is identical for every pool size,
/// including the inline pool. The result type must be default-constructible.
///
/// Work is split into contiguous chunks (a few per worker) to amortize
/// queue traffic for cheap bodies. If any invocation throws, the exception
/// from the lowest-index chunk is rethrown after all chunks finish — again
/// a deterministic choice. A null `pool` runs everything inline.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, int64_t n, Fn&& fn)
    -> std::vector<decltype(fn(int64_t{0}))> {
  using T = decltype(fn(int64_t{0}));
  // std::vector<bool> is bit-packed: adjacent indices share a word, so
  // concurrent chunk writes would race. Return uint8_t/int instead.
  static_assert(!std::is_same_v<T, bool>,
                "ParallelMap cannot return std::vector<bool>");
  std::vector<T> results(static_cast<size_t>(n));
  if (n <= 0) return results;
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int64_t i = 0; i < n; ++i) results[static_cast<size_t>(i)] = fn(i);
    return results;
  }

  const int64_t num_chunks =
      std::min<int64_t>(n, static_cast<int64_t>(pool->num_threads()) * 4);
  const int64_t chunk_size = (n + num_chunks - 1) / num_chunks;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(num_chunks));
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t begin = c * chunk_size;
    const int64_t end = std::min(n, begin + chunk_size);
    futures.push_back(pool->Submit([&results, &errors, &fn, begin, end, c] {
      try {
        for (int64_t i = begin; i < end; ++i) {
          results[static_cast<size_t>(i)] = fn(i);
        }
      } catch (...) {
        errors[static_cast<size_t>(c)] = std::current_exception();
      }
    }));
  }
  for (std::future<void>& future : futures) future.wait();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace crowdjoin

#endif  // CROWDJOIN_COMMON_THREAD_POOL_H_
