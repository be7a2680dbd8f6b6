// Metrics registry: named counters, gauges, and summary histograms.
//
// Thread-safety and determinism follow the repo's parallel contract
// (common/parallel.hpp): counter increments are atomic and commutative, so
// concurrent adds aggregate to the same total at any thread count; gauges
// and histograms are only written from orchestration code (one writer per
// registry), and fan-out layers give every job its own Registry and merge
// them in job-index order — the merged snapshot is therefore byte-identical
// between a serial and a threaded run.
//
// Metric handles returned by the registry are stable for the registry's
// lifetime; hot paths cache the pointer and pay one predictable branch when
// no metrics are attached.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace xbarlife::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value metric. Single-writer (orchestration code); readers may
/// observe it concurrently.
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_release);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  bool has_value() const { return set_.load(std::memory_order_acquire); }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Streaming summary (count / sum / min / max) of observed samples, plus a
/// fixed log-scale bucket array for deterministic quantile estimates.
///
/// Buckets are powers of two: bucket 0 catches non-positive and non-finite
/// samples, bucket i (i >= 1) spans [2^(i-33), 2^(i-32)) — covering
/// ~1.2e-10 through ~2.1e9 with everything beyond clamped into the edge
/// buckets. Every observe() updates the buckets, so combine() is a plain
/// element-wise add and the merged state is invariant under merge order;
/// quantile() reads only buckets/count/min/max (never the fp sum), so the
/// estimates are byte-identical at any thread count and any fold order.
/// The bucketed flag (Registry::bucketed_histogram) only widens the JSON
/// export — plain histograms keep their summary-only shape.
class HistogramMetric {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double sample);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  double mean() const;  ///< 0 when empty

  /// Deterministic quantile estimate from the log buckets (q in [0,1]);
  /// 0 when empty. Exact for min/max, within one bucket width otherwise.
  double quantile(double q) const;

  /// Snapshot of the bucket array.
  std::array<std::uint64_t, kBuckets> buckets() const;

  /// Whether extended (quantile + bucket) JSON export is requested.
  bool bucketed() const;
  void set_bucketed();

  /// Maps a sample to its bucket index (exposed for tests).
  static std::size_t bucket_index(double sample);

  /// Adds another summary into this one (used by Registry::merge_from).
  /// Commutative and associative: combine(a,b) == combine(b,a) up to fp
  /// addition of sums, and bucket/quantile state exactly.
  void combine(const HistogramMetric& other);

 private:
  double quantile_locked(double q) const;

  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<std::uint64_t, kBuckets> buckets_{};
  bool bucketed_ = false;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named metric. The returned reference stays valid
  /// for the registry's lifetime. A name addresses one metric kind only;
  /// reusing it for another kind throws InvalidArgument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name);

  /// Like histogram(), but marks the metric for extended JSON export:
  /// p50/p95/p99 estimates plus the sparse bucket array are emitted after
  /// the summary fields. The flag survives merge_from, so a bucketed
  /// child histogram stays bucketed in the merged parent snapshot.
  HistogramMetric& bucketed_histogram(std::string_view name);

  /// Folds `other` into this registry: counters add, histograms combine,
  /// and set gauges overwrite (callers merge in job-index order, so
  /// "latest job wins" is deterministic).
  void merge_from(const Registry& other);

  /// Snapshot as a JSON object with keys sorted by metric name:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///    min,max,mean}}}
  /// Unset gauges and empty histograms are skipped. Metrics whose name
  /// matches `exclude_suffix` (when non-empty) are dropped — the
  /// determinism tests use this to ignore wall-clock "*_ms" series.
  JsonValue to_json(std::string_view exclude_suffix = {}) const;

  /// Counters only, as a JSON object keyed by name (sorted). The cheap
  /// live rollup used by progress snapshots: Counter::add is atomic, so
  /// this is safe to call while jobs are still incrementing.
  JsonValue counters_json() const;

  /// Calls fn(name, value) for every counter in name order. Used by the
  /// wire layer to ship counter deltas without exposing the maps.
  void visit_counters(
      const std::function<void(const std::string&, std::uint64_t)>& fn) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

}  // namespace xbarlife::obs
