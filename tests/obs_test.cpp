// Observability layer: JSON serialization, sinks, the metrics registry,
// and event tracing. The load-bearing properties are deterministic
// serialization (identical values -> identical bytes) and null-safety
// (everything no-ops without a sink/registry attached).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/event_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/sink.hpp"

namespace xbarlife::obs {
namespace {

// --- JsonValue ---------------------------------------------------------

TEST(JsonValueTest, ScalarsDump) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(-7).dump(), "-7");
  EXPECT_EQ(JsonValue(std::uint64_t{18446744073709551615ULL}).dump(),
            "18446744073709551615");
  EXPECT_EQ(JsonValue(std::size_t{3}).dump(), "3");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
  EXPECT_EQ(JsonValue(std::string("hi")).dump(), "\"hi\"");
}

TEST(JsonValueTest, DoublesRoundTripShortest) {
  EXPECT_EQ(JsonValue(0.1).dump(), "0.1");
  EXPECT_EQ(JsonValue(1.0).dump(), "1");
  EXPECT_EQ(JsonValue(-2.5).dump(), "-2.5");
  EXPECT_EQ(JsonValue(1e300).dump(), "1e+300");
}

TEST(JsonValueTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
}

TEST(JsonValueTest, StringsAreEscaped) {
  EXPECT_EQ(JsonValue("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue("a\\b").dump(), "\"a\\\\b\"");
  EXPECT_EQ(JsonValue("a\nb\tc").dump(), "\"a\\nb\\tc\"");
  EXPECT_EQ(JsonValue(std::string("a\x01z")).dump(), "\"a\\u0001z\"");
}

TEST(JsonValueTest, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", JsonValue::array());
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":[]}");
}

TEST(JsonValueTest, SetOverwritesInPlace) {
  JsonValue obj = JsonValue::object();
  obj.set("a", 1);
  obj.set("b", 2);
  obj.set("a", 3);
  EXPECT_EQ(obj.dump(), "{\"a\":3,\"b\":2}");
}

TEST(JsonValueTest, NestedStructures) {
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back("two");
  JsonValue inner = JsonValue::object();
  inner.set("k", false);
  arr.push_back(std::move(inner));
  JsonValue obj = JsonValue::object();
  obj.set("items", std::move(arr));
  EXPECT_EQ(obj.dump(), "{\"items\":[1,\"two\",{\"k\":false}]}");
}

// --- Sinks -------------------------------------------------------------

TEST(SinkTest, MemorySinkCapturesLines) {
  MemorySink sink;
  sink.write("{\"a\":1}");
  sink.write("{\"b\":2}");
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sink.lines()[0], "{\"a\":1}");
  sink.clear();
  EXPECT_TRUE(sink.lines().empty());
}

TEST(SinkTest, StreamSinkAppendsNewlines) {
  std::ostringstream out;
  StreamSink sink(out);
  sink.write("{\"a\":1}");
  sink.write("{\"b\":2}");
  EXPECT_EQ(out.str(), "{\"a\":1}\n{\"b\":2}\n");
}

TEST(SinkTest, JsonlFileSinkWritesAndThrowsOnBadPath) {
  const std::string path = ::testing::TempDir() + "obs_sink_test.jsonl";
  {
    JsonlFileSink sink(path);
    sink.write("{\"n\":1}");
    sink.flush();
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"n\":1}");
  std::remove(path.c_str());

  EXPECT_THROW(JsonlFileSink("/nonexistent-dir-xyz/trace.jsonl"),
               xbarlife::IoError);
}

// --- Registry ----------------------------------------------------------

TEST(RegistryTest, FindOrCreateReturnsStableHandles) {
  Registry reg;
  Counter& c = reg.counter("a");
  c.add(2);
  reg.counter("a").add(3);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  EXPECT_EQ(&reg.counter("a"), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, CrossKindNameCollisionThrows) {
  Registry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), xbarlife::Error);
  EXPECT_THROW(reg.histogram("metric"), xbarlife::Error);
}

TEST(RegistryTest, GaugeTracksLastValue) {
  Registry reg;
  Gauge& g = reg.gauge("g");
  EXPECT_FALSE(g.has_value());
  g.set(1.5);
  g.set(2.5);
  EXPECT_TRUE(g.has_value());
  EXPECT_EQ(g.value(), 2.5);
}

TEST(RegistryTest, HistogramSummarizes) {
  Registry reg;
  HistogramMetric& h = reg.histogram("h");
  h.observe(1.0);
  h.observe(3.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 6.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 3.0);
  EXPECT_EQ(h.mean(), 2.0);
}

TEST(RegistryTest, ConcurrentCounterAddsAggregateExactly) {
  Registry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) {
        c.add();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(RegistryTest, MergeFromAddsCombinesAndOverwrites) {
  Registry a;
  a.counter("c").add(1);
  a.gauge("g").set(1.0);
  a.histogram("h").observe(1.0);

  Registry b;
  b.counter("c").add(2);
  b.counter("only_b").add(5);
  b.gauge("g").set(9.0);
  b.gauge("unset_g");  // never set: must not clobber a's value
  b.histogram("h").observe(3.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 3u);
  EXPECT_EQ(a.counter("only_b").value(), 5u);
  EXPECT_EQ(a.gauge("g").value(), 9.0);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").max(), 3.0);
}

TEST(RegistryTest, ToJsonSortsSkipsAndExcludes) {
  Registry reg;
  reg.counter("z").add(1);
  reg.counter("a").add(2);
  reg.gauge("set_gauge").set(0.5);
  reg.gauge("unset_gauge");
  reg.histogram("empty_hist");
  reg.histogram("lat_ms").observe(10.0);
  reg.histogram("vals").observe(2.0);

  const std::string all = reg.to_json().dump();
  EXPECT_EQ(all.find("\"a\":2") < all.find("\"z\":1"), true);
  EXPECT_EQ(all.find("unset_gauge"), std::string::npos);
  EXPECT_EQ(all.find("empty_hist"), std::string::npos);
  EXPECT_NE(all.find("lat_ms"), std::string::npos);

  const std::string no_ms = reg.to_json("_ms").dump();
  EXPECT_EQ(no_ms.find("lat_ms"), std::string::npos);
  EXPECT_NE(no_ms.find("vals"), std::string::npos);
}

// --- EventTrace --------------------------------------------------------

TEST(EventTraceTest, DisabledTraceEmitsNothing) {
  EventTrace trace;  // no sink
  EXPECT_FALSE(trace.enabled());
  trace.emit("evt", {{"k", JsonValue(1)}});
  EXPECT_EQ(trace.events_emitted(), 0u);
}

TEST(EventTraceTest, EventLineFormatAndSequencing) {
  MemorySink sink;
  EventTrace trace(&sink);
  trace.emit("alpha", {{"x", JsonValue(1)}});
  trace.emit("beta", {});
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sink.lines()[0].rfind("{\"event\":\"alpha\",\"seq\":0,\"t_ms\":",
                                  0),
            0u);
  EXPECT_NE(sink.lines()[0].find("\"x\":1"), std::string::npos);
  EXPECT_EQ(sink.lines()[1].rfind("{\"event\":\"beta\",\"seq\":1,\"t_ms\":",
                                  0),
            0u);
  EXPECT_EQ(trace.events_emitted(), 2u);
}

TEST(EventTraceTest, ContextFieldsAppearOnEveryEvent) {
  MemorySink sink;
  std::vector<std::pair<std::string, JsonValue>> context;
  context.emplace_back("job", JsonValue("T+T/r0"));
  EventTrace trace(&sink, std::move(context));
  trace.emit("one", {{"k", JsonValue(7)}});
  trace.emit("two", {});
  ASSERT_EQ(sink.lines().size(), 2u);
  for (const std::string& line : sink.lines()) {
    EXPECT_NE(line.find("\"job\":\"T+T/r0\""), std::string::npos) << line;
  }
  // Context precedes event fields.
  EXPECT_LT(sink.lines()[0].find("\"job\""), sink.lines()[0].find("\"k\""));
}

TEST(EventTraceTest, EmitLineReplaysVerbatim) {
  MemorySink sink;
  EventTrace trace(&sink);
  const std::string line = "{\"event\":\"x\",\"seq\":0,\"t_ms\":1.5}";
  trace.emit_line(line);
  ASSERT_EQ(sink.lines().size(), 1u);
  EXPECT_EQ(sink.lines()[0], line);
}

// --- Obs handle --------------------------------------------------------

TEST(ObsTest, DefaultHandleIsDisabledAndNullSafe) {
  const Obs obs;
  EXPECT_FALSE(obs.enabled());
  EXPECT_FALSE(obs.metrics_enabled());
  EXPECT_FALSE(obs.trace_enabled());
  obs.count("c");
  obs.set_gauge("g", 1.0);
  obs.observe("h", 2.0);
  obs.event("e", {{"k", JsonValue(1)}});
}

TEST(ObsTest, EnabledHandleRoutesToRegistryAndTrace) {
  Registry reg;
  MemorySink sink;
  EventTrace trace(&sink);
  const Obs obs{&reg, &trace};
  EXPECT_TRUE(obs.enabled());
  obs.count("c", 3);
  obs.set_gauge("g", 0.25);
  obs.observe("h", 4.0);
  obs.event("e");
  EXPECT_EQ(reg.counter("c").value(), 3u);
  EXPECT_EQ(reg.gauge("g").value(), 0.25);
  EXPECT_EQ(reg.histogram("h").count(), 1u);
  EXPECT_EQ(sink.lines().size(), 1u);
}

// --- Error hierarchy ---------------------------------------------------

TEST(ErrorHierarchyTest, NewTypesDeriveFromError) {
  const xbarlife::IoError io("disk");
  const xbarlife::ConvergenceError conv("diverged");
  const xbarlife::InvalidArgument arg("bad");
  EXPECT_NE(dynamic_cast<const xbarlife::Error*>(&io), nullptr);
  EXPECT_NE(dynamic_cast<const xbarlife::Error*>(&conv), nullptr);
  EXPECT_NE(dynamic_cast<const xbarlife::Error*>(&arg), nullptr);
  EXPECT_STREQ(io.what(), "disk");
  EXPECT_STREQ(conv.what(), "diverged");
}

TEST(ErrorHierarchyTest, TypesAreDistinctlyCatchable) {
  bool caught = false;
  try {
    throw xbarlife::ConvergenceError("x");
  } catch (const xbarlife::IoError&) {
    FAIL() << "wrong handler";
  } catch (const xbarlife::ConvergenceError&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
}

}  // namespace
}  // namespace xbarlife::obs
