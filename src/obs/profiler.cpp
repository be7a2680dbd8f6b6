#include "obs/profiler.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace xbarlife::obs {

Profiler::Profiler() : epoch_(std::chrono::steady_clock::now()) {}

std::size_t Profiler::begin_span(std::string_view name) {
  SpanRecord rec;
  rec.name = std::string(name);
  rec.parent = open_span();
  rec.depth = stack_.size();
  rec.track = 0;
  rec.start = std::chrono::steady_clock::now();
  const std::size_t index = records_.size();
  records_.push_back(std::move(rec));
  stack_.push_back(index);
  return index;
}

void Profiler::end_span(std::size_t index) {
  XB_CHECK(!stack_.empty() && stack_.back() == index,
           "end_span out of order: spans must close innermost first");
  SpanRecord& rec = records_[index];
  rec.dur_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - rec.start)
                   .count();
  rec.open = false;
  stack_.pop_back();
}

void Profiler::add_counter(std::string_view name, std::uint64_t delta) {
  if (stack_.empty()) {
    return;
  }
  auto& counters = records_[stack_.back()].counters;
  for (auto& [key, value] : counters) {
    if (key == name) {
      value += delta;
      return;
    }
  }
  counters.emplace_back(std::string(name), delta);
}

void Profiler::adopt(const Profiler& child, std::string_view track_name) {
  XB_CHECK(!child.has_open_span(),
           "cannot adopt a profiler with open spans");
  const std::size_t offset = records_.size();
  const std::size_t adopt_parent = open_span();
  const std::size_t depth_offset =
      adopt_parent == kNoSpan ? 0 : records_[adopt_parent].depth + 1;
  const std::size_t track = tracks_.size();
  tracks_.emplace_back(track_name);
  records_.reserve(offset + child.records_.size());
  for (const SpanRecord& src : child.records_) {
    SpanRecord rec = src;
    if (rec.parent == kNoSpan) {
      rec.parent = adopt_parent;
    } else {
      rec.parent += offset;
    }
    rec.depth += depth_offset;
    // Child tracks flatten onto the one adopted track: jobs are
    // single-track by construction (one profiler per job).
    rec.track = track;
    records_.push_back(std::move(rec));
  }
}

void Profiler::graft(const std::vector<RemoteSpan>& spans,
                     std::chrono::steady_clock::time_point anchor) {
  const std::size_t offset = records_.size();
  const std::size_t graft_parent = open_span();
  const std::size_t depth_offset =
      graft_parent == kNoSpan ? 0 : records_[graft_parent].depth + 1;
  const std::size_t track =
      graft_parent == kNoSpan ? 0 : records_[graft_parent].track;
  // Validate the whole batch before recording any of it, so a malformed
  // batch leaves the profiler untouched. Compared without adding offset:
  // a worker-supplied parent near SIZE_MAX would wrap the sum and attach
  // to a client span outside the batch.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    XB_CHECK(spans[i].parent == kNoSpan || spans[i].parent < i,
             "grafted span parent must precede it in the batch");
  }
  records_.reserve(offset + spans.size());
  for (const RemoteSpan& src : spans) {
    SpanRecord rec;
    rec.name = src.name;
    rec.parent = src.parent == kNoSpan ? graft_parent : src.parent + offset;
    rec.depth = (src.parent == kNoSpan
                     ? depth_offset
                     : records_[src.parent + offset].depth + 1);
    rec.track = track;
    rec.start = anchor + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 src.start_offset_ms));
    rec.dur_ms = src.dur_ms;
    rec.open = false;
    rec.counters = src.counters;
    records_.push_back(std::move(rec));
  }
}

std::vector<Profiler::Rollup> Profiler::rollup() const {
  // Children's durations subtract from the parent's self time. Jobs
  // adopted from a concurrent fan-out overlap in wall clock, so a
  // fan-out span's self time clamps at zero rather than going negative.
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const SpanRecord& rec : records_) {
    if (rec.parent != kNoSpan) {
      child_ms[rec.parent] += rec.dur_ms;
    }
  }
  std::map<std::string, Rollup> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& rec = records_[i];
    Rollup& agg = by_name[rec.name];
    ++agg.count;
    agg.total_ms += rec.dur_ms;
    agg.self_ms += std::max(0.0, rec.dur_ms - child_ms[i]);
    for (const auto& [key, value] : rec.counters) {
      agg.counters[key] += value;
    }
  }
  std::vector<Rollup> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) {
    agg.name = name;
    out.push_back(std::move(agg));
  }
  return out;
}

JsonValue Profiler::report_json(bool include_times) const {
  JsonValue spans = JsonValue::array();
  for (const Rollup& agg : rollup()) {
    JsonValue entry = JsonValue::object();
    entry.set("name", agg.name);
    entry.set("count", agg.count);
    if (include_times) {
      entry.set("total_ms", agg.total_ms);
      entry.set("self_ms", agg.self_ms);
    }
    JsonValue counters = JsonValue::object();
    for (const auto& [key, value] : agg.counters) {
      counters.set(key, value);
    }
    entry.set("counters", std::move(counters));
    spans.push_back(std::move(entry));
  }
  JsonValue out = JsonValue::object();
  out.set("span_count", records_.size());
  out.set("spans", std::move(spans));
  return out;
}

}  // namespace xbarlife::obs
