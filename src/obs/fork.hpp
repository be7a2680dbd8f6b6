// Deterministic per-job observability contexts for fan-out layers.
//
// A fan-out layer (core::run_sweep, the one grid engine) runs N
// independent jobs concurrently, but the merged metrics, event stream, and
// span profile must be byte-identical at any thread count. ObsFork is the
// one implementation of that plumbing: it forks the parent Obs into N
// child contexts — a private Registry, an in-memory EventTrace carrying a
// {"job": label} context field, and a private Profiler, each created only
// when the parent has the corresponding sink attached — and merges them
// back strictly in job-index order:
//
//   obs::ObsFork fork(parent, labels);
//   parallel_for(... { job body uses fork.job(i) ... });
//   fork.merge_into([&](std::size_t i) { /* per-job summary events */ });
//
// Each child context is written by exactly one job at a time (the repo's
// single-writer contract), so no locks are taken on the hot path.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/sink.hpp"

namespace xbarlife::obs {

class ObsFork {
 public:
  /// Forks `parent` into one child context per label. When the parent has
  /// no sink attached at all, children are not allocated and job() returns
  /// disabled handles.
  ObsFork(const Obs& parent, std::vector<std::string> labels);

  std::size_t size() const { return labels_.size(); }

  /// Handle for job `i`; valid for the fork's lifetime. Mirrors the
  /// parent: null members stay null, so a metrics-only parent forks
  /// metrics-only children.
  Obs job(std::size_t i);

  /// Deterministic fan-in, strictly in job-index order: splices each
  /// job's buffered trace lines into the parent trace, merges its registry
  /// into the parent registry, and adopts its profiler as a new display
  /// track named by the job label. `after_job`, when given, runs after job
  /// i has been merged — the hook for per-job summary events
  /// (sweep_job_done) that must land between jobs i and i+1.
  void merge_into(const std::function<void(std::size_t)>& after_job = {});

  /// Moves job `i`'s buffered trace lines out of its child sink (the sink
  /// is left empty). Used by checkpointing fan-outs that persist the lines
  /// and splice them back themselves instead of calling merge_into().
  /// Returns an empty vector when children were never allocated.
  std::vector<std::string> take_job_lines(std::size_t i);

 private:
  struct Child {
    Registry registry;
    MemorySink sink;
    std::unique_ptr<EventTrace> trace;
    std::unique_ptr<Profiler> profiler;
  };

  Obs parent_;
  std::vector<std::string> labels_;
  std::vector<std::unique_ptr<Child>> children_;
};

}  // namespace xbarlife::obs
