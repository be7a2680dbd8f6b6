// Deterministic fork-join parallelism for the hot paths.
//
// A single lazily-initialized thread pool is shared by the whole process.
// The pool size comes from the XBARLIFE_THREADS environment variable (or
// set_parallel_threads); the default is 1, which makes every parallel_for
// run serially so results stay bit-identical to the historical
// single-threaded code paths.
//
// Determinism contract:
//   * Work is partitioned into chunks by (begin, end, grain) ONLY — the
//     thread count never changes the partition, just which thread runs
//     each chunk.
//   * parallel_for bodies must write disjoint outputs per index; under
//     that contract results are bit-identical at any thread count.
//   * parallel_reduce merges per-chunk partials in chunk-index order, so
//     reductions are also independent of the thread count (they may
//     reassociate floating-point sums relative to a hand-written serial
//     loop, but identically so on every run).
//   * A parallel_for issued from inside another parallel_for body always
//     runs inline (serially). Fan-out layers — e.g. core::ScenarioRunner —
//     therefore execute each job's inner numerics in a fixed serial order
//     whether or not the fan-out itself is threaded.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace xbarlife {

/// Current size of the shared pool (>= 1). The first call reads
/// XBARLIFE_THREADS: unset/empty/invalid -> 1 (serial), 0 -> one thread
/// per hardware core, N -> N threads.
std::size_t parallel_threads();

/// Resizes the shared pool. n == 0 means one thread per hardware core;
/// any n is capped at the hardware core count (oversubscribing a
/// compute-bound fork-join pool only adds context-switch overhead, and
/// the grain-based partition keeps results identical either way).
/// Must not be called from inside a parallel_for body.
void set_parallel_threads(std::size_t n);

/// True while the calling thread is executing a parallel_for chunk; any
/// nested parallel_for runs inline.
bool in_parallel_region();

/// Load-balancing grain for `count` independent work items whose
/// partition never shows up in the bits: ~4 chunks per pool thread, and
/// `count` (one chunk, run inline) where the work runs serially — a
/// one-thread pool or inside a parallel region, where the pool size is
/// not read (the running fan-out holds it).
std::size_t parallel_grain(std::size_t count);

/// Number of chunks [begin, end) splits into at the given grain (the
/// partition parallel_for/parallel_reduce use). grain < 1 is treated as 1.
std::size_t parallel_chunk_count(std::size_t begin, std::size_t end,
                                 std::size_t grain);

/// Runs fn(chunk_index, chunk_begin, chunk_end) for every grain-sized chunk
/// of [begin, end). Chunks are disjoint, cover the range, and all but the
/// last have exactly `grain` indices. Blocks until every chunk finished;
/// the first exception thrown by a chunk is rethrown on the caller.
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Runs fn(chunk_begin, chunk_end) over every chunk of [begin, end).
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Per-job cooperative watchdog (the --job-timeout machinery).
///
/// A JobDeadline arms a deadline on the *calling thread* for its scope;
/// instrumented loops (trainer epochs, tuning iterations, lifetime
/// sessions, escalation-ladder rungs) call check_job_deadline() at their
/// boundaries, which throws TimeoutError once the innermost armed
/// deadline has passed. Because a job's nested parallel_for bodies run
/// inline on the job's thread, a deadline armed around a sweep job covers
/// all of that job's numerics. The watchdog is cooperative: it marks
/// overrunning jobs as timed-out errors at the next checked boundary —
/// it cannot preempt a loop that never reaches one.
class JobDeadline {
 public:
  /// Arms a deadline `timeout_ms` from now; <= 0 arms nothing. `what`
  /// names the job in the TimeoutError message. Nested deadlines stack:
  /// the destructor restores the enclosing one.
  JobDeadline(double timeout_ms, std::string what);
  ~JobDeadline();

  JobDeadline(const JobDeadline&) = delete;
  JobDeadline& operator=(const JobDeadline&) = delete;

 private:
  bool armed_ = false;
  // Saved enclosing deadline state (type-erased to keep <chrono> out of
  // this header's hot-path includes).
  bool prev_active_ = false;
  long long prev_deadline_ns_ = 0;
  std::string prev_what_;
};

/// Throws TimeoutError when the calling thread's innermost armed deadline
/// has passed; a no-op (one thread-local load) when none is armed.
void check_job_deadline();

/// Deterministic map-reduce: `chunk_fn(chunk_begin, chunk_end) -> T` runs
/// per chunk (possibly concurrently); partial results are then merged with
/// `merge(acc, partial)` serially in chunk-index order starting from
/// `init`. The outcome depends only on (begin, end, grain), never on the
/// thread count.
template <typename T, typename ChunkFn, typename MergeFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T init, ChunkFn&& chunk_fn, MergeFn&& merge) {
  const std::size_t chunks = parallel_chunk_count(begin, end, grain);
  std::vector<T> partials(chunks);
  parallel_for_chunks(begin, end, grain,
                      [&](std::size_t ci, std::size_t b, std::size_t e) {
                        partials[ci] = chunk_fn(b, e);
                      });
  T acc = std::move(init);
  for (T& p : partials) {
    acc = merge(std::move(acc), std::move(p));
  }
  return acc;
}

}  // namespace xbarlife
