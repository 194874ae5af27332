#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace hg::core {

namespace {

thread_local bool t_in_parallel_region = false;

/// How long an idle pool thread polls before it blocks: a fork-join that
/// follows within it (the next validation-sample round, the next kernel)
/// starts without a futex wake-up, which costs up to a millisecond on a
/// virtualised host.
constexpr auto kSpin = std::chrono::microseconds(100);

/// Polls `ready` for up to kSpin; true once it holds.
template <typename Pred>
bool spin_until(Pred ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// One fork-join job: workers (plus the caller) claim chunk indices from an
/// atomic cursor until exhausted. Chunk boundaries are fixed before any
/// thread runs, so the decomposition never depends on scheduling.
struct Job {
  std::int64_t begin = 0;
  std::int64_t chunk = 1;
  std::int64_t end = 0;
  std::int64_t num_chunks = 0;
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> remaining{0};
  Mutex err_mutex;
  std::exception_ptr error HG_GUARDED_BY(err_mutex);

  void run_chunks() {
    t_in_parallel_region = true;
    for (;;) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const std::int64_t lo = begin + c * chunk;
      const std::int64_t hi = std::min(end, lo + chunk);
      try {
        (*fn)(lo, hi);
      } catch (...) {
        MutexLock lock(err_mutex);
        if (!error) error = std::current_exception();
      }
    }
    t_in_parallel_region = false;
  }
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::int64_t width() const { return width_.load(std::memory_order_relaxed); }

  void resize(std::int64_t n) {
    MutexLock lock(resize_mutex_);
    if (n == width()) return;
    stop_workers();
    width_.store(n, std::memory_order_relaxed);
    start_workers();
  }

  /// Execute `job` on the pool; the caller participates and blocks until
  /// every chunk has run.
  void run(Job& job) {
    {
      MutexLock lock(queue_mutex_);
      pending_.push_back(&job);
      queued_.store(pending_.size(), std::memory_order_relaxed);
    }
    wake_.notify_all();
    job.run_chunks();
    // The caller ran out of chunks. Unpublish the job so no further worker
    // can join it (the Job lives on the caller's stack), then wait for the
    // workers already inside it.
    spin_until([&job] {
      return job.remaining.load(std::memory_order_acquire) == 0;
    });
    UniqueMutexLock lock(queue_mutex_);
    const auto it = std::find(pending_.begin(), pending_.end(), &job);
    if (it != pending_.end()) pending_.erase(it);  // a worker may have already
    queued_.store(pending_.size(), std::memory_order_relaxed);
    while (job.remaining.load(std::memory_order_acquire) != 0)
      done_.wait(lock);
  }

 private:
  Pool() {
    width_.store(hardware_threads(), std::memory_order_relaxed);
    MutexLock lock(resize_mutex_);
    start_workers();
  }

  ~Pool() {
    MutexLock lock(resize_mutex_);
    stop_workers();
  }

  void start_workers() HG_REQUIRES(resize_mutex_) {
    const std::int64_t n = width() - 1;
    shutdown_ = false;
    for (std::int64_t i = 0; i < n; ++i) {
      try {
        workers_.emplace_back([this] { worker_loop(); });
      } catch (...) {
        // Thread creation failed (resource exhaustion): keep the pool
        // consistent at the width actually achieved, then report.
        width_.store(static_cast<std::int64_t>(workers_.size()) + 1,
                     std::memory_order_relaxed);
        throw;
      }
    }
  }

  void stop_workers() HG_REQUIRES(resize_mutex_) {
    {
      MutexLock lock(queue_mutex_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void worker_loop() {
    for (;;) {
      Job* job = nullptr;
      spin_until([this] {
        return queued_.load(std::memory_order_relaxed) != 0;
      });
      {
        UniqueMutexLock lock(queue_mutex_);
        while (!shutdown_ && pending_.empty()) wake_.wait(lock);
        if (shutdown_) return;
        job = pending_.front();
        // Keep the job visible until its chunks are exhausted so every idle
        // worker can join in; drop it once the cursor has passed the end.
        if (job->next.load(std::memory_order_relaxed) >= job->num_chunks) {
          pending_.erase(pending_.begin());
          queued_.store(pending_.size(), std::memory_order_relaxed);
          continue;
        }
        job->remaining.fetch_add(1, std::memory_order_acq_rel);
      }
      job->run_chunks();
      job->remaining.fetch_sub(1, std::memory_order_acq_rel);
      {
        // Lock pairs the decrement with the caller's predicate check so the
        // final wakeup cannot be lost.
        MutexLock lock(queue_mutex_);
      }
      done_.notify_all();
    }
  }

  std::atomic<std::int64_t> width_{1};
  Mutex resize_mutex_;

  Mutex queue_mutex_;
  std::condition_variable_any wake_;  // waits on UniqueMutexLock
  std::condition_variable_any done_;
  std::vector<Job*> pending_ HG_GUARDED_BY(queue_mutex_);
  // pending_.size(), readable without the lock: the idle poll's signal.
  std::atomic<std::size_t> queued_{0};
  std::vector<std::thread> workers_ HG_GUARDED_BY(resize_mutex_);
  bool shutdown_ HG_GUARDED_BY(queue_mutex_) = false;
};

}  // namespace

std::int64_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::int64_t>(n);
}

std::int64_t num_threads() { return Pool::instance().width(); }

void set_num_threads(std::int64_t n) {
  if (n < 0) throw std::invalid_argument("set_num_threads: negative count");
  if (in_parallel_region())
    throw std::logic_error("set_num_threads inside a parallel region");
  Pool::instance().resize(n == 0 ? hardware_threads() : n);
}

bool in_parallel_region() { return t_in_parallel_region; }

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  const std::int64_t range = end - begin;
  const std::int64_t threads = num_threads();
  if (threads == 1 || range <= grain || in_parallel_region()) {
    fn(begin, end);
    return;
  }
  // Fixed decomposition: enough chunks for dynamic load balance, never so
  // many that scheduling overhead dominates, each at least `grain` wide.
  const std::int64_t max_chunks =
      std::min<std::int64_t>((range + grain - 1) / grain, threads * 4);
  Job job;
  job.begin = begin;
  job.end = end;
  job.num_chunks = std::max<std::int64_t>(1, max_chunks);
  job.chunk = (range + job.num_chunks - 1) / job.num_chunks;
  // Recompute: ceil division can leave trailing empty chunks; shrink count.
  job.num_chunks = (range + job.chunk - 1) / job.chunk;
  job.fn = &fn;
  Pool::instance().run(job);
  std::exception_ptr error;
  {
    // run() has joined every worker that entered the job, but the analysis
    // only knows `error` by its guard.
    MutexLock lock(job.err_mutex);
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_invoke(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn) {
  parallel_for(0, n, 1, [&fn](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace hg::core
