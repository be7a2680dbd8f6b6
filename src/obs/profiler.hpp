// Hierarchical span profiler: where wall-clock and programming effort go.
//
// A Profiler records a tree of named spans (session -> tuning -> escalation
// rung, ...) with wall-clock durations plus deterministic domain counters
// (programming pulses, tuning iterations, rescue rungs) attached to the
// innermost open span. The paper's end-of-life feedback loop — more tuning
// iterations -> more pulses -> faster aging — becomes directly visible as
// per-phase effort instead of flat totals.
//
// Threading follows the repo's fan-out contract (common/parallel.hpp):
// a Profiler is a single-writer, lock-free buffer. Orchestration code owns
// one profiler per concurrent job (core::ScenarioRunner hands every job a
// private profiler via obs::ObsFork) and the fan-in adopt()s them in
// job-index order, so the merged span tree — names, nesting, order,
// counters — is byte-identical at any thread count. Wall-clock fields
// (start/dur) are the only nondeterministic content, mirroring the
// t_ms/wall_ms convention of the event trace.
//
// Consumers: obs::perfetto_trace_json (Chrome trace_event export, opens in
// ui.perfetto.dev) and Profiler::report_json (per-phase aggregate rollup
// embedded into the CLI result document under "profile").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace xbarlife::obs {

/// Sentinel parent index for root spans.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// One recorded span. Records are stored in begin order (preorder within a
/// track), which is deterministic under the single-writer contract.
struct SpanRecord {
  std::string name;
  std::size_t parent = kNoSpan;  ///< index into records(), kNoSpan for roots
  std::size_t depth = 0;
  std::size_t track = 0;  ///< display track (0 = main; one per adopted job)
  std::chrono::steady_clock::time_point start;  ///< wall clock, nondeterministic
  double dur_ms = 0.0;                          ///< wall clock, nondeterministic
  bool open = true;
  /// Domain counters attached while this span was innermost, in first-touch
  /// order (deterministic: spans are written by a single thread).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Opens a span as a child of the innermost open span (or a root) and
  /// returns its index. Pair with end_span; prefer the obs::Span RAII.
  std::size_t begin_span(std::string_view name);

  /// Closes the span, recording its duration. Spans must close innermost
  /// first (RAII guarantees this); closing out of order throws.
  void end_span(std::size_t index);

  /// Adds `delta` to the named counter of the innermost open span. With no
  /// open span the sample is dropped — the CLI keeps a command-level root
  /// span open for the whole run, so nothing is lost in practice.
  void add_counter(std::string_view name, std::uint64_t delta);

  bool has_open_span() const { return !stack_.empty(); }
  /// Index of the innermost open span (kNoSpan when none).
  std::size_t open_span() const {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  /// Deterministic fan-in: appends `child`'s records under the innermost
  /// open span (or as roots), remapping parents/depths and placing the
  /// adopted records on a fresh display track named `track_name` (e.g. the
  /// sweep job label). Callers adopt in job-index order — the same
  /// convention as Registry::merge_from — so the merged tree is identical
  /// at any thread count. The child must have no open spans.
  void adopt(const Profiler& child, std::string_view track_name);

  /// A span recorded by another process, shipped back over the wire: times
  /// are already measured, expressed as offsets from a batch anchor.
  /// `parent` indexes into the grafted batch itself (kNoSpan = batch root).
  struct RemoteSpan {
    std::string name;
    std::size_t parent = kNoSpan;
    double start_offset_ms = 0.0;  ///< from the batch anchor
    double dur_ms = 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
  };

  /// Grafts pre-timed remote spans under the innermost open span, on the
  /// SAME display track as that span (unlike adopt(), which opens a new
  /// track per job): a worker's rebuild/execute/serialize phases render
  /// nested inside the client's remote-execute span. Batch roots become
  /// children of the open span (or profiler roots when none is open);
  /// starts are anchored at `anchor`, a client-side time (typically the
  /// moment the request went out), so worker clocks never leak into the
  /// trace. Names, nesting, order, and counters are deterministic; only
  /// the anchored wall-clock fields are not.
  void graft(const std::vector<RemoteSpan>& spans,
             std::chrono::steady_clock::time_point anchor);

  const std::vector<SpanRecord>& records() const { return records_; }
  std::size_t span_count() const { return records_.size(); }

  /// Creation time of this profiler; Perfetto timestamps are relative to
  /// the root profiler's epoch.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Display-track names: track 0 is "main", adopted tracks follow in
  /// adoption order.
  const std::vector<std::string>& track_names() const { return tracks_; }

  /// One span name's totals over every record with that name.
  struct Rollup {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    /// total_ms less the children's durations, each record clamped at
    /// zero (adopted jobs of a concurrent fan-out overlap in wall clock).
    double self_ms = 0.0;
    std::map<std::string, std::uint64_t> counters;
  };

  /// Per-phase aggregate, grouped by span name and sorted by name: what
  /// report_json and the CLI's console table render.
  std::vector<Rollup> rollup() const;

  /// The rollup as JSON:
  ///   {"span_count":N,"spans":[{"name":...,"count":...,
  ///     "total_ms":...,"self_ms":...,"counters":{...}}]}
  /// `include_times` = false omits the wall-clock fields, leaving the
  /// deterministic skeleton the byte-identity tests compare.
  JsonValue report_json(bool include_times = true) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> stack_;  ///< indices of open spans, outer..inner
  std::vector<std::string> tracks_{"main"};
};

}  // namespace xbarlife::obs
