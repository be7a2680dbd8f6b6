#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/error.hpp"

namespace xbarlife {

namespace {

thread_local bool t_in_region = false;

/// Fork-join pool: workers sleep until a job generation is published, run
/// the shared job functor once, and report back. One job is in flight at a
/// time (dispatches are serialized), so a generation can never be missed.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lk(dispatch_mutex_);
    return size_unlocked();
  }

  void resize(std::size_t n) {
    std::lock_guard<std::mutex> lk(dispatch_mutex_);
    const std::size_t cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (n == 0) {
      n = cores;
    }
    // Oversubscription only adds context-switch overhead to a
    // compute-bound fork-join pool (part of the threaded-slower-than-
    // serial regression); the partition is grain-based, so capping the
    // worker count never changes results.
    n = std::min(n, cores);
    if (n == size_unlocked()) {
      return;
    }
    stop_workers();
    start_workers(n - 1);
  }

  /// Runs `job` on every worker thread and on the caller; returns when all
  /// of them finished. `job` must be callable concurrently.
  void run_on_all(const std::function<void()>& job) {
    std::unique_lock<std::mutex> dispatch(dispatch_mutex_);
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      job_ = &job;
      active_ = workers_.size();
      ++generation_;
    }
    work_ready_.notify_all();
    job();  // the caller is a full participant
    std::unique_lock<std::mutex> lk(state_mutex_);
    job_done_.wait(lk, [&] { return active_ == 0; });
    job_ = nullptr;
  }

 private:
  ThreadPool() {
    std::size_t n = 1;
    if (const char* env = std::getenv("XBARLIFE_THREADS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') {
        n = parsed == 0
                ? std::max<std::size_t>(
                      1, std::thread::hardware_concurrency())
                : static_cast<std::size_t>(parsed);
      }
    }
    // Same hardware-concurrency cap as resize().
    n = std::min(n, std::max<std::size_t>(
                        1, std::thread::hardware_concurrency()));
    start_workers(n - 1);
  }

  ~ThreadPool() { stop_workers(); }

  std::size_t size_unlocked() const { return workers_.size() + 1; }

  void start_workers(std::size_t helpers) {
    // New workers must treat the current generation as already seen:
    // starting from 0 after a resize would wake them instantly on a stale
    // generation with no job published.
    std::uint64_t gen;
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      gen = generation_;
    }
    workers_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      workers_.emplace_back([this, gen] { worker_loop(gen); });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      shutdown_ = true;
      ++generation_;
    }
    work_ready_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
    workers_.clear();
    std::lock_guard<std::mutex> lk(state_mutex_);
    shutdown_ = false;
  }

  void worker_loop(std::uint64_t seen) {
    for (;;) {
      const std::function<void()>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(state_mutex_);
        work_ready_.wait(
            lk, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) {
          return;
        }
        seen = generation_;
        job = job_;
      }
      (*job)();
      {
        std::lock_guard<std::mutex> lk(state_mutex_);
        --active_;
      }
      job_done_.notify_all();
    }
  }

  std::mutex dispatch_mutex_;  ///< serializes run_on_all / resize
  std::mutex state_mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  const std::function<void()>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace

std::size_t parallel_threads() { return ThreadPool::instance().size(); }

void set_parallel_threads(std::size_t n) {
  XB_CHECK(!t_in_region,
           "set_parallel_threads inside a parallel region");
  ThreadPool::instance().resize(n);
}

bool in_parallel_region() { return t_in_region; }

std::size_t parallel_grain(std::size_t count) {
  const std::size_t threads = t_in_region ? 1 : parallel_threads();
  if (threads == 1) {
    return std::max<std::size_t>(1, count);
  }
  return std::max<std::size_t>(1, (count + 4 * threads - 1) / (4 * threads));
}

std::size_t parallel_chunk_count(std::size_t begin, std::size_t end,
                                 std::size_t grain) {
  if (end <= begin) {
    return 0;
  }
  const std::size_t g = std::max<std::size_t>(1, grain);
  return (end - begin + g - 1) / g;
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = parallel_chunk_count(begin, end, g);
  if (chunks == 0) {
    return;
  }

  const auto run_chunk = [&](std::size_t ci) {
    const std::size_t b = begin + ci * g;
    const std::size_t e = std::min(b + g, end);
    fn(ci, b, e);
  };

  // Serial path: already inside a region, a one-thread pool, or a single
  // chunk. Chunk boundaries and order match the parallel path exactly.
  if (t_in_region || chunks == 1 || parallel_threads() == 1) {
    const bool was_in_region = t_in_region;
    t_in_region = true;
    try {
      for (std::size_t ci = 0; ci < chunks; ++ci) {
        run_chunk(ci);
      }
    } catch (...) {
      t_in_region = was_in_region;
      throw;
    }
    t_in_region = was_in_region;
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::function<void()> job = [&] {
    t_in_region = true;
    std::size_t ci;
    while ((ci = next.fetch_add(1, std::memory_order_relaxed)) < chunks) {
      try {
        run_chunk(ci);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
    t_in_region = false;
  };
  ThreadPool::instance().run_on_all(job);
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t, std::size_t b, std::size_t e) {
                        fn(b, e);
                      });
}

namespace {

// Innermost armed deadline for the calling thread. Nested JobDeadline
// instances save/restore this, so a deadline armed around an outer job
// is reinstated when an inner scope ends.
struct DeadlineState {
  bool active = false;
  long long deadline_ns = 0;  // steady_clock epoch, nanoseconds
  std::string what;
};

thread_local DeadlineState t_deadline;

long long steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

JobDeadline::JobDeadline(double timeout_ms, std::string what) {
  if (timeout_ms <= 0.0) {
    return;
  }
  armed_ = true;
  prev_active_ = t_deadline.active;
  prev_deadline_ns_ = t_deadline.deadline_ns;
  prev_what_ = std::move(t_deadline.what);
  t_deadline.active = true;
  t_deadline.deadline_ns =
      steady_now_ns() + static_cast<long long>(timeout_ms * 1e6);
  t_deadline.what = std::move(what);
}

JobDeadline::~JobDeadline() {
  if (!armed_) {
    return;
  }
  t_deadline.active = prev_active_;
  t_deadline.deadline_ns = prev_deadline_ns_;
  t_deadline.what = std::move(prev_what_);
}

void check_job_deadline() {
  if (!t_deadline.active) {
    return;
  }
  if (steady_now_ns() >= t_deadline.deadline_ns) {
    throw TimeoutError("job '" + t_deadline.what +
                       "' exceeded its --job-timeout deadline");
  }
}

}  // namespace xbarlife
