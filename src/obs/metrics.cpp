#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife::obs {

std::size_t HistogramMetric::bucket_index(double sample) {
  if (!(sample > 0.0) || !std::isfinite(sample)) {
    return 0;  // catch-all: zero, negative, NaN, inf
  }
  const int raw = std::ilogb(sample) + 33;
  return static_cast<std::size_t>(
      std::clamp(raw, 1, static_cast<int>(kBuckets) - 1));
}

void HistogramMetric::observe(double sample) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  sum_ += sample;
  min_ = std::min(min_, sample);
  max_ = std::max(max_, sample);
  ++buckets_[bucket_index(sample)];
}

std::uint64_t HistogramMetric::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double HistogramMetric::sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double HistogramMetric::min() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double HistogramMetric::max() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double HistogramMetric::mean() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double HistogramMetric::quantile(double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return quantile_locked(q);
}

double HistogramMetric::quantile_locked(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    if (cum + buckets_[i] >= rank) {
      // Interpolate within the bucket on the log scale; bucket 0 has no
      // meaningful lower edge, so it reports the observed minimum.
      double value;
      if (i == 0) {
        value = min_;
      } else {
        const double f = static_cast<double>(rank - cum) /
                         static_cast<double>(buckets_[i]);
        value = std::ldexp(1.0, static_cast<int>(i) - 33) * std::exp2(f);
      }
      return std::clamp(value, min_, max_);
    }
    cum += buckets_[i];
  }
  return max_;
}

std::array<std::uint64_t, HistogramMetric::kBuckets> HistogramMetric::buckets()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

bool HistogramMetric::bucketed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bucketed_;
}

void HistogramMetric::set_bucketed() {
  const std::lock_guard<std::mutex> lock(mu_);
  bucketed_ = true;
}

void HistogramMetric::combine(const HistogramMetric& other) {
  // Copy under the source lock first so combine(self) cannot deadlock.
  std::uint64_t ocount;
  double osum;
  double omin;
  double omax;
  std::array<std::uint64_t, kBuckets> obuckets;
  bool obucketed;
  {
    const std::lock_guard<std::mutex> lock(other.mu_);
    ocount = other.count_;
    osum = other.sum_;
    omin = other.min_;
    omax = other.max_;
    obuckets = other.buckets_;
    obucketed = other.bucketed_;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  count_ += ocount;
  sum_ += osum;
  min_ = std::min(min_, omin);
  max_ = std::max(max_, omax);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += obuckets[i];
  }
  bucketed_ = bucketed_ || obucketed;
}

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

template <typename Map>
bool contains(const Map& map, std::string_view name) {
  return map.find(name) != map.end();
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  XB_CHECK(!contains(gauges_, name) && !contains(histograms_, name),
           "metric name already used for a different kind: " +
               std::string(name));
  return find_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  XB_CHECK(!contains(counters_, name) && !contains(histograms_, name),
           "metric name already used for a different kind: " +
               std::string(name));
  return find_or_create(gauges_, name);
}

HistogramMetric& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  XB_CHECK(!contains(counters_, name) && !contains(gauges_, name),
           "metric name already used for a different kind: " +
               std::string(name));
  return find_or_create(histograms_, name);
}

HistogramMetric& Registry::bucketed_histogram(std::string_view name) {
  HistogramMetric& h = histogram(name);
  h.set_bucketed();
  return h;
}

void Registry::merge_from(const Registry& other) {
  XB_CHECK(&other != this, "cannot merge a registry into itself");
  // Lock ordering: other is only read, this only written; both maps are
  // only mutated (inserted into) under their own mutex.
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, c] : other.counters_) {
    find_or_create(counters_, name).add(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    if (g->has_value()) {
      find_or_create(gauges_, name).set(g->value());
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    find_or_create(histograms_, name).combine(*h);
  }
}

JsonValue Registry::to_json(std::string_view exclude_suffix) const {
  const auto excluded = [&](const std::string& name) {
    return !exclude_suffix.empty() && name.size() >= exclude_suffix.size() &&
           name.compare(name.size() - exclude_suffix.size(),
                        exclude_suffix.size(), exclude_suffix) == 0;
  };
  const std::lock_guard<std::mutex> lock(mu_);
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_) {
    if (!excluded(name)) {
      counters.set(name, c->value());
    }
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, g] : gauges_) {
    if (!excluded(name) && g->has_value()) {
      gauges.set(name, g->value());
    }
  }
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, h] : histograms_) {
    if (excluded(name) || h->count() == 0) {
      continue;
    }
    JsonValue summary = JsonValue::object();
    summary.set("count", h->count());
    summary.set("sum", h->sum());
    summary.set("min", h->min());
    summary.set("max", h->max());
    summary.set("mean", h->mean());
    if (h->bucketed()) {
      summary.set("p50", h->quantile(0.50));
      summary.set("p95", h->quantile(0.95));
      summary.set("p99", h->quantile(0.99));
      JsonValue buckets = JsonValue::object();
      const auto counts = h->buckets();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] != 0) {
          buckets.set(std::to_string(i), counts[i]);
        }
      }
      summary.set("buckets", std::move(buckets));
    }
    histograms.set(name, std::move(summary));
  }
  JsonValue out = JsonValue::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

JsonValue Registry::counters_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonValue out = JsonValue::object();
  for (const auto& [name, c] : counters_) {
    out.set(name, c->value());
  }
  return out;
}

void Registry::visit_counters(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    fn(name, c->value());
  }
}

}  // namespace xbarlife::obs
