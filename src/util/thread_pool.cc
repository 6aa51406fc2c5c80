#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace deepsd {
namespace util {

namespace {

/// The pool (if any) whose worker the current thread is. Lets nested
/// ParallelFor / Submit calls detect self-deadlock and run inline.
thread_local const ThreadPool* t_worker_pool = nullptr;

struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* tasks;
  obs::Counter* busy_us;
  obs::Histogram* task_us;
};

/// Registry pointers are process-lifetime, so one shared set serves every
/// pool instance (in practice only the global pool and test pools exist).
PoolMetrics& Metrics() {
  static PoolMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    return PoolMetrics{r.GetGauge("pool/queue_depth"),
                       r.GetCounter("pool/tasks"),
                       r.GetCounter("pool/busy_us"),
                       r.GetHistogram("pool/task_us")};
  }();
  return m;
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

struct ThreadPool::ForState {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next_chunk{0};

  std::mutex mu;
  std::condition_variable done_cv;
  size_t active_helpers = 0;
  /// (chunk index, exception) of every failed chunk; the lowest chunk
  /// index is rethrown so the surfaced error is scheduling-independent.
  std::vector<std::pair<size_t, std::exception_ptr>> errors;
};

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::InWorkerThread() const { return t_worker_pool == this; }

void ThreadPool::WorkerLoop(int worker_id) {
  t_worker_pool = this;
  SetThreadLogTag(StrFormat("w%d", worker_id));
  DEEPSD_LOG(Debug) << "pool worker started";
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
    }
    if (obs::Enabled()) {
      int64_t t0 = SteadyNowUs();
      task();
      int64_t dur = SteadyNowUs() - t0;
      Metrics().tasks->Inc();
      Metrics().busy_us->Inc(static_cast<uint64_t>(std::max<int64_t>(dur, 0)));
      Metrics().task_us->Observe(static_cast<double>(dur));
    } else {
      task();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (active_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
  DEEPSD_LOG(Debug) << "pool worker stopped";
  SetThreadLogTag("");
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task =
      std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  // No workers, or called from a worker of this pool: run inline. A worker
  // enqueueing and then waiting on the future could deadlock once every
  // worker blocks the same way.
  if (workers_.empty() || InWorkerThread()) {
    (*task)();
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back([task] { (*task)(); });
    Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::RunChunks(ForState* state) {
  for (;;) {
    size_t c = state->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->num_chunks) return;
    size_t chunk_begin = state->begin + c * state->grain;
    size_t chunk_end = std::min(state->end, chunk_begin + state->grain);
    try {
      (*state->fn)(chunk_begin, chunk_end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->errors.emplace_back(c, std::current_exception());
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = (end - begin + grain - 1) / grain;

  // Serial fast path: single chunk, no workers, or nested call from one of
  // this pool's own workers (enqueueing would risk deadlock — every worker
  // could end up waiting for chunks only the queue can run).
  if (num_chunks == 1 || workers_.empty() || InWorkerThread()) {
    std::vector<std::pair<size_t, std::exception_ptr>> errors;
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t chunk_begin = begin + c * grain;
      size_t chunk_end = std::min(end, chunk_begin + grain);
      try {
        fn(chunk_begin, chunk_end);
      } catch (...) {
        errors.emplace_back(c, std::current_exception());
      }
    }
    if (!errors.empty()) std::rethrow_exception(errors.front().second);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->num_chunks = num_chunks;
  state->fn = &fn;

  // The caller also drains chunks, so at most num_chunks - 1 helpers.
  const size_t num_helpers =
      std::min(workers_.size(), num_chunks - 1);
  state->active_helpers = num_helpers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < num_helpers; ++h) {
      queue_.emplace_back([state] {
        RunChunks(state.get());
        std::lock_guard<std::mutex> state_lock(state->mu);
        if (--state->active_helpers == 0) state->done_cv.notify_all();
      });
    }
    Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();

  RunChunks(state.get());
  // The lowest-indexed chunk's exception is moved out under the lock: a
  // helper task may drop the last ForState reference after this point,
  // and it must never free the exception the caller is rethrowing.
  std::exception_ptr first_error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock,
                        [&state] { return state->active_helpers == 0; });
    if (!state->errors.empty()) {
      auto first = std::min_element(
          state->errors.begin(), state->errors.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      first_error = std::move(first->second);
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

size_t ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + active_;
}

void ThreadPool::Drain() {
  // A worker draining its own pool would wait for itself to finish.
  DEEPSD_CHECK_MSG(!InWorkerThread(),
                   "ThreadPool::Drain called from a worker of the same pool");
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::WaitIdleFor(int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(
      lock, std::chrono::microseconds(timeout_us),
      [this] { return queue_.empty() && active_ == 0; });
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    g_global_pool = std::make_unique<ThreadPool>(0);
  }
  return *g_global_pool;
}

Status ThreadPool::SetGlobalThreads(int num_threads) {
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_global_mu);
    if (g_global_pool != nullptr) {
      // Swapping pools under live work used to be a documented-but-silent
      // footgun: callers racing the old pool would lose its workers mid
      // task. Refuse instead. The grace wait absorbs the microseconds a
      // ParallelFor's helpers spend unwinding after the call has already
      // returned to the caller — logically-complete work, not a misuse.
      // (Best-effort: a caller that submits right after this check is
      // still violating the "between phases" contract, but every observed
      // misuse is now loud.)
      if (!g_global_pool->WaitIdleFor(100'000)) {
        return Status::FailedPrecondition(StrFormat(
            "SetGlobalThreads while the old pool still has %zu queued or "
            "in-flight task(s); Drain() it or call between phases",
            g_global_pool->pending_tasks()));
      }
    }
    old = std::move(g_global_pool);
    g_global_pool = std::make_unique<ThreadPool>(num_threads);
  }
  // Old pool (if any) joins its idle workers here, outside the lock.
  return Status::OK();
}

int ThreadPool::GlobalThreads() { return Global().num_threads(); }

}  // namespace util
}  // namespace deepsd
