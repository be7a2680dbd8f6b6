// Obs: the lightweight handle instrumented code passes around.
//
// An Obs bundles an optional metrics Registry, an optional EventTrace, and
// an optional span Profiler. Every helper no-ops on a null member, so
// library functions take a `const obs::Obs& obs = {}` default parameter and
// uninstrumented callers (benches, tests, existing code) pay one branch per
// call site — the "zero-cost when no sink is attached" contract of the
// observability layer. Guard expensive field construction in hot loops with
// `obs.trace_enabled()`.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"

namespace xbarlife::obs {

struct Obs {
  Registry* metrics = nullptr;
  EventTrace* trace = nullptr;
  Profiler* profiler = nullptr;
  /// Live progress heartbeats (--status-file). Deliberately excluded from
  /// enabled(): progress is a side channel, not a mergeable sink, and must
  /// not force ObsFork to build per-job children.
  ProgressReporter* progress = nullptr;

  bool metrics_enabled() const { return metrics != nullptr; }
  bool trace_enabled() const { return trace != nullptr && trace->enabled(); }
  bool profile_enabled() const { return profiler != nullptr; }
  bool enabled() const {
    return metrics_enabled() || trace_enabled() || profile_enabled();
  }

  /// Counter increments also attribute to the profiler's innermost open
  /// span, so domain counters (tuning.pulses, tuning.iterations,
  /// resilience.rung.*, ...) roll up per phase for free.
  void count(std::string_view name, std::uint64_t delta = 1) const {
    if (metrics != nullptr) {
      metrics->counter(name).add(delta);
    }
    if (profiler != nullptr) {
      profiler->add_counter(name, delta);
    }
  }
  void set_gauge(std::string_view name, double value) const {
    if (metrics != nullptr) {
      metrics->gauge(name).set(value);
    }
  }
  void observe(std::string_view name, double sample) const {
    if (metrics != nullptr) {
      metrics->histogram(name).observe(sample);
    }
  }
  void event(std::string_view type,
             std::initializer_list<Field> fields = {}) const {
    if (trace != nullptr) {
      trace->emit(type, fields);
    }
  }
  /// Overload for call sites that assemble fields dynamically.
  void event(std::string_view type, const std::vector<Field>& fields) const {
    if (trace != nullptr) {
      trace->emit(type, fields);
    }
  }
  /// Progress heartbeat helpers; no-ops with no reporter attached, like
  /// every other Obs entry point.
  void progress_phase(std::string_view name, std::uint64_t done,
                      std::uint64_t total) const {
    if (progress != nullptr) {
      progress->phase(name, done, total);
    }
  }
  void progress_tick(std::uint64_t delta = 1) const {
    if (progress != nullptr) {
      progress->tick(delta);
    }
  }
};

/// RAII span: the one scope primitive of the observability layer. On every
/// attached sink it records the scope as
///   * a profiler span (hierarchical, with attributed domain counters),
///   * a span_begin/span_end trace event pair (span_end carries the
///     duration as "wall_ms", the stripped-by-convention field), and
///   * a sample in `metrics->histogram(name + "_ms")` (the existing
///     wall-clock histogram convention, excluded from determinism checks).
/// With no sink attached the constructor never reads the clock.
class Span {
 public:
  Span(const Obs& obs, std::string_view name)
      : histogram_(obs.metrics != nullptr
                       ? &obs.metrics->histogram(std::string(name) + "_ms")
                       : nullptr),
        trace_(obs.trace_enabled() ? obs.trace : nullptr),
        profiler_(obs.profiler),
        name_(name) {
    if (profiler_ != nullptr) {
      span_index_ = profiler_->begin_span(name_);
    }
    if (trace_ != nullptr) {
      trace_->emit("span_begin", {{"name", name_}});
    }
    if (histogram_ != nullptr || trace_ != nullptr ||
        profiler_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  ~Span() {
    if (histogram_ == nullptr && trace_ == nullptr &&
        profiler_ == nullptr) {
      return;
    }
    const double dur = elapsed_ms();
    if (profiler_ != nullptr) {
      profiler_->end_span(span_index_);
    }
    if (trace_ != nullptr) {
      trace_->emit("span_end", {{"name", name_}, {"wall_ms", dur}});
    }
    if (histogram_ != nullptr) {
      histogram_->observe(dur);
    }
  }

 private:
  HistogramMetric* histogram_ = nullptr;
  EventTrace* trace_ = nullptr;
  Profiler* profiler_ = nullptr;
  std::size_t span_index_ = kNoSpan;
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace xbarlife::obs
