// Unit tests for the span profiler, the ObsFork context propagation
// helper, and the Perfetto trace_event exporter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/fork.hpp"
#include "obs/obs.hpp"
#include "obs/perfetto.hpp"
#include "obs/profiler.hpp"
#include "obs/sink.hpp"

namespace xbarlife::obs {
namespace {

TEST(Profiler, NestsSpansAndRecordsPreorder) {
  Profiler prof;
  const std::size_t root = prof.begin_span("root");
  const std::size_t child = prof.begin_span("child");
  const std::size_t grand = prof.begin_span("grandchild");
  prof.end_span(grand);
  prof.end_span(child);
  const std::size_t sibling = prof.begin_span("sibling");
  prof.end_span(sibling);
  prof.end_span(root);

  const auto& recs = prof.records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[root].name, "root");
  EXPECT_EQ(recs[root].parent, kNoSpan);
  EXPECT_EQ(recs[root].depth, 0u);
  EXPECT_EQ(recs[child].parent, root);
  EXPECT_EQ(recs[child].depth, 1u);
  EXPECT_EQ(recs[grand].parent, child);
  EXPECT_EQ(recs[grand].depth, 2u);
  EXPECT_EQ(recs[sibling].parent, root);
  for (const SpanRecord& rec : recs) {
    EXPECT_FALSE(rec.open);
    EXPECT_GE(rec.dur_ms, 0.0);
  }
  EXPECT_FALSE(prof.has_open_span());
}

TEST(Profiler, EndSpanOutOfOrderThrows) {
  Profiler prof;
  const std::size_t outer = prof.begin_span("outer");
  prof.begin_span("inner");
  EXPECT_THROW(prof.end_span(outer), Error);
}

TEST(Profiler, CountersAttachToInnermostOpenSpan) {
  Profiler prof;
  const std::size_t outer = prof.begin_span("outer");
  prof.add_counter("pulses", 5);
  const std::size_t inner = prof.begin_span("inner");
  prof.add_counter("pulses", 7);
  prof.add_counter("pulses", 1);
  prof.add_counter("iters", 2);
  prof.end_span(inner);
  prof.add_counter("pulses", 3);
  prof.end_span(outer);

  const auto& recs = prof.records();
  ASSERT_EQ(recs[inner].counters.size(), 2u);
  EXPECT_EQ(recs[inner].counters[0].first, "pulses");
  EXPECT_EQ(recs[inner].counters[0].second, 8u);
  EXPECT_EQ(recs[inner].counters[1].first, "iters");
  EXPECT_EQ(recs[inner].counters[1].second, 2u);
  ASSERT_EQ(recs[outer].counters.size(), 1u);
  EXPECT_EQ(recs[outer].counters[0].second, 8u);
}

TEST(Profiler, CounterWithNoOpenSpanIsDropped) {
  Profiler prof;
  prof.add_counter("orphan", 1);
  EXPECT_EQ(prof.span_count(), 0u);
}

TEST(Profiler, AdoptReparentsUnderOpenSpanOnNewTrack) {
  Profiler child;
  const std::size_t croot = child.begin_span("job_work");
  child.add_counter("pulses", 4);
  const std::size_t cinner = child.begin_span("job_inner");
  child.end_span(cinner);
  child.end_span(croot);

  Profiler parent;
  const std::size_t proot = parent.begin_span("sweep");
  parent.adopt(child, "T+T/r0");
  parent.end_span(proot);

  const auto& recs = parent.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[1].name, "job_work");
  EXPECT_EQ(recs[1].parent, proot);
  EXPECT_EQ(recs[1].depth, 1u);
  EXPECT_EQ(recs[1].track, 1u);
  EXPECT_EQ(recs[2].name, "job_inner");
  EXPECT_EQ(recs[2].parent, 1u);
  EXPECT_EQ(recs[2].depth, 2u);
  ASSERT_EQ(parent.track_names().size(), 2u);
  EXPECT_EQ(parent.track_names()[0], "main");
  EXPECT_EQ(parent.track_names()[1], "T+T/r0");
}

TEST(Profiler, AdoptWithOpenChildSpanThrows) {
  Profiler child;
  child.begin_span("still_open");
  Profiler parent;
  EXPECT_THROW(parent.adopt(child, "job"), Error);
}

TEST(Profiler, GraftRejectsParentThatWrapsOutOfTheBatch) {
  Profiler prof;
  const std::size_t root = prof.begin_span("client_root");
  const std::size_t send = prof.begin_span("client_send");
  const auto anchor = std::chrono::steady_clock::now();
  // Two client spans precede the batch, so parent kNoSpan - 1 plus the
  // batch offset 2 wraps to 0: the client root, outside the batch.
  std::vector<Profiler::RemoteSpan> spans(2);
  spans[0].name = "worker.request";
  spans[1].name = "worker.execute";
  spans[1].parent = kNoSpan - 1;
  EXPECT_THROW(prof.graft(spans, anchor), InvalidArgument);
  const std::size_t before = prof.records().size();
  EXPECT_EQ(before, 2u);  // a rejected batch records nothing

  // The same batch with an in-batch parent grafts under the open span.
  spans[1].parent = 0;
  prof.graft(spans, anchor);
  EXPECT_EQ(prof.records()[before].parent, send);
  EXPECT_EQ(prof.records()[before + 1].parent, before);
  prof.end_span(send);
  prof.end_span(root);
}

TEST(Profiler, ReportAggregatesByNameSorted) {
  Profiler prof;
  const std::size_t a = prof.begin_span("beta");
  prof.add_counter("pulses", 2);
  prof.end_span(a);
  const std::size_t b = prof.begin_span("alpha");
  prof.end_span(b);
  const std::size_t c = prof.begin_span("beta");
  prof.add_counter("pulses", 3);
  prof.end_span(c);

  const std::string skeleton = prof.report_json(false).dump();
  EXPECT_EQ(skeleton,
            "{\"span_count\":3,\"spans\":["
            "{\"name\":\"alpha\",\"count\":1,\"counters\":{}},"
            "{\"name\":\"beta\",\"count\":2,"
            "\"counters\":{\"pulses\":5}}]}");
  // With times, the same skeleton gains total_ms/self_ms per span.
  const std::string timed = prof.report_json(true).dump();
  EXPECT_NE(timed.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(timed.find("\"self_ms\":"), std::string::npos);
}

TEST(ContentAddress, IsStableAndHex) {
  const std::string id = content_address("/cmd.lifetime#0");
  EXPECT_EQ(id, content_address("/cmd.lifetime#0"));
  EXPECT_EQ(id.size(), 16u);
  for (const char ch : id) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'));
  }
  EXPECT_NE(id, content_address("/cmd.lifetime#1"));
}

TEST(Perfetto, EmitsMetadataAndCompleteEvents) {
  Profiler prof;
  const std::size_t root = prof.begin_span("session");
  const std::size_t tune = prof.begin_span("tune");
  prof.add_counter("pulses", 9);
  prof.end_span(tune);
  prof.end_span(root);

  const JsonValue doc = perfetto_trace_json(prof, "unit-test");
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"schema\":\"xbarlife.profile.v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"tool\":\"unit-test\""), std::string::npos);
  EXPECT_NE(text.find("\"span_count\":2"), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  // Content-addressed ids derive from the span paths.
  EXPECT_NE(
      text.find("\"id\":\"" + content_address("/session#0") + "\""),
      std::string::npos);
  EXPECT_NE(text.find("\"id\":\"" +
                      content_address("/session#0/tune#0") + "\""),
            std::string::npos);
  // Counters ride along in args next to the path.
  EXPECT_NE(text.find("\"pulses\":9"), std::string::npos);
}

TEST(Span, RecordsHistogramTraceAndProfilerSpan) {
  Registry reg;
  MemorySink sink;
  EventTrace trace(&sink);
  Profiler prof;
  const Obs obs{&reg, &trace, &prof};
  {
    const Span span(obs, "phase");
    obs.count("pulses", 3);
  }
  EXPECT_EQ(reg.histogram("phase_ms").count(), 1u);
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_NE(sink.lines()[0].find("\"event\":\"span_begin\""),
            std::string::npos);
  EXPECT_NE(sink.lines()[0].find("\"name\":\"phase\""), std::string::npos);
  EXPECT_NE(sink.lines()[1].find("\"event\":\"span_end\""),
            std::string::npos);
  EXPECT_NE(sink.lines()[1].find("\"wall_ms\":"), std::string::npos);
  ASSERT_EQ(prof.span_count(), 1u);
  EXPECT_EQ(prof.records()[0].name, "phase");
  ASSERT_EQ(prof.records()[0].counters.size(), 1u);
  EXPECT_EQ(prof.records()[0].counters[0].second, 3u);
}

// With only a trace attached (no metrics), a span must still leave a
// record.
TEST(Span, TraceOnlyRunRecordsSpanEvents) {
  MemorySink sink;
  EventTrace trace(&sink);
  const Obs obs{nullptr, &trace, nullptr};
  { const Span span(obs, "tuning.session"); }
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_NE(sink.lines()[0].find("span_begin"), std::string::npos);
  EXPECT_NE(sink.lines()[1].find("span_end"), std::string::npos);
}

TEST(ObsFork, DisabledParentForksDisabledChildren) {
  ObsFork fork({}, {"a", "b"});
  EXPECT_EQ(fork.size(), 2u);
  EXPECT_FALSE(fork.job(0).enabled());
  std::size_t calls = 0;
  fork.merge_into([&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 2u);
}

TEST(ObsFork, MirrorsParentSinksAndMergesInJobOrder) {
  Registry reg;
  MemorySink sink;
  EventTrace trace(&sink);
  Profiler prof;
  const std::size_t root = prof.begin_span("sweep");
  const Obs parent{&reg, &trace, &prof};

  ObsFork fork(parent, {"job0", "job1"});
  // Write in reverse order to prove the merge is by index, not by
  // completion time.
  for (const std::size_t i : {1u, 0u}) {
    const Obs job = fork.job(i);
    EXPECT_TRUE(job.metrics_enabled());
    EXPECT_TRUE(job.trace_enabled());
    EXPECT_TRUE(job.profile_enabled());
    const Span span(job, "work");
    job.count("done");
    job.event("marker", {{"index", i}});
  }
  std::vector<std::size_t> order;
  fork.merge_into([&](std::size_t i) { order.push_back(i); });
  prof.end_span(root);

  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(reg.counter("done").value(), 2u);
  // Trace lines splice job0's buffer before job1's, each with its
  // context field.
  ASSERT_EQ(sink.lines().size(), 6u);
  EXPECT_NE(sink.lines()[0].find("\"job\":\"job0\""), std::string::npos);
  EXPECT_NE(sink.lines()[3].find("\"job\":\"job1\""), std::string::npos);
  // Profiler: root + one adopted span per job, on per-job tracks.
  ASSERT_EQ(prof.span_count(), 3u);
  EXPECT_EQ(prof.records()[1].parent, root);
  EXPECT_EQ(prof.records()[2].parent, root);
  ASSERT_EQ(prof.track_names().size(), 3u);
  EXPECT_EQ(prof.track_names()[1], "job0");
  EXPECT_EQ(prof.track_names()[2], "job1");
}

TEST(ObsFork, MetricsOnlyParentForksMetricsOnlyChildren) {
  Registry reg;
  const Obs parent{&reg, nullptr, nullptr};
  ObsFork fork(parent, {"solo"});
  const Obs job = fork.job(0);
  EXPECT_TRUE(job.metrics_enabled());
  EXPECT_FALSE(job.trace_enabled());
  EXPECT_FALSE(job.profile_enabled());
  job.count("done");
  fork.merge_into();
  EXPECT_EQ(reg.counter("done").value(), 1u);
}

}  // namespace
}  // namespace xbarlife::obs
