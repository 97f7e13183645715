#include "common/thread_pool.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/tracing.h"

namespace crowdjoin {

namespace {

// Pool-wide instrumentation handles, resolved once. Registered in the
// global registry so every pool in the process aggregates into one view —
// the library creates pools per campaign, not per subsystem.
struct PoolMetrics {
  obs::Counter* tasks_total;
  obs::Gauge* queue_depth;
  obs::Histogram* task_wait_us;
  obs::Histogram* task_run_us;

  static PoolMetrics& Get() {
    static PoolMetrics metrics{
        obs::MetricsRegistry::Global().GetCounter("pool.tasks_total"),
        obs::MetricsRegistry::Global().GetGauge("pool.queue_depth"),
        obs::MetricsRegistry::Global().GetHistogram("pool.task_wait_us"),
        obs::MetricsRegistry::Global().GetHistogram("pool.task_run_us")};
    return metrics;
  }
};

// Runs one task with its span + run-time histogram. The instrumentation is
// a read-only side channel: the task body and its future are untouched.
void RunInstrumented(std::packaged_task<void()>& task) {
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.tasks_total->Inc();
  obs::Span span("pool.task", "pool");
  obs::ScopedLatencyUs run_timer(metrics.task_run_us);
  task();  // packaged_task captures exceptions into the future
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) return;  // inline pool: no workers
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Inline pools never queue, and workers drain the queue before exiting,
  // so nothing is left behind here.
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    RunInstrumented(task);  // inline pool: run on the submitting thread
    return future;
  }
  const int64_t enqueue_ns =
      obs::MetricsRegistry::Global().enabled() ? obs::NowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(QueuedTask{std::move(task), enqueue_ns});
  }
  PoolMetrics::Get().queue_depth->Add(1);
  cv_.notify_one();
  return future;
}

ThreadPool& SharedPool() {
  static ThreadPool pool(ThreadPool::HardwareThreads());
  return pool;
}

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask queued;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      queued = std::move(queue_.front());
      queue_.pop_front();
    }
    PoolMetrics& metrics = PoolMetrics::Get();
    metrics.queue_depth->Add(-1);
    if (queued.enqueue_ns != 0) {
      metrics.task_wait_us->Observe((obs::NowNs() - queued.enqueue_ns) / 1000);
    }
    RunInstrumented(queued.task);
  }
}

}  // namespace crowdjoin
