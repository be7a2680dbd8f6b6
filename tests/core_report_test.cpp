// Shared reporting helpers and the model registry. The result-document
// schema is pinned by a golden file: a change to the envelope keys is a
// consumer-visible break and must bump kResultSchema.
#include "core/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "core/model_registry.hpp"
#include "tensor/kernels/kernels.hpp"
#include "xbar/executor.hpp"

#ifndef XBARLIFE_GOLDEN_DIR
#error "XBARLIFE_GOLDEN_DIR must point at tests/golden"
#endif

namespace xbarlife::core {
namespace {

/// Member `key` of object `v`; nullptr when absent or not an object.
const obs::JsonValue* member(const obs::JsonValue& v, std::string_view key) {
  const obs::JsonValue::Object* obj = v.as_object();
  if (obj == nullptr) {
    return nullptr;
  }
  for (const auto& [k, value] : *obj) {
    if (k == key) {
      return &value;
    }
  }
  return nullptr;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(XBARLIFE_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

LifetimeResult sample_lifetime() {
  LifetimeResult result;
  for (std::size_t s = 0; s < 3; ++s) {
    SessionRecord rec;
    rec.session = s;
    rec.applications = 100 * (s + 1);
    rec.tuning_iterations = 4 + s;
    rec.rescued = (s == 1);
    rec.converged = (s != 2);
    rec.start_accuracy = 0.8 - 0.1 * static_cast<double>(s);
    rec.accuracy = 0.9;
    rec.pulses_total = 1000 * (s + 1);
    rec.layer_mean_aged_rmax = {50e3, 48e3};
    rec.layer_mean_usable_levels = {16.0, 15.5};
    result.sessions.push_back(rec);
  }
  result.lifetime_applications = 300;
  result.died = true;
  return result;
}

// --- result document ---------------------------------------------------

TEST(ResultDocumentTest, EnvelopeMatchesGolden) {
  // The envelope embeds the active kernel variant and executor backend;
  // pin both so the golden is host- and environment-independent.
  kernels::set_kernel("scalar");
  xbar::set_executor("sim");
  obs::JsonValue data = obs::JsonValue::object();
  data.set("answer", 42);
  obs::Registry reg;
  reg.counter("lifetime.sessions").add(3);
  reg.gauge("train.final_test_accuracy").set(0.5);
  const obs::JsonValue doc = result_document("demo", std::move(data), &reg);
  kernels::set_kernel("auto");
  EXPECT_EQ(doc.dump(), read_golden("result_document.json"));
}

TEST(ResultDocumentTest, EnvelopeKeysAndSchema) {
  const obs::JsonValue doc =
      result_document("lifetime", obs::JsonValue::object(), nullptr);
  ASSERT_TRUE(doc.is_object());
  const auto* obj = doc.as_object();
  // Under the remote executor the envelope carries the executor_pool
  // stamp directly after "executor" (the suite runs under every backend);
  // otherwise exactly the six base keys.
  const bool pooled = xbar::executor_pool_summary().active;
  const std::size_t shift = pooled ? 1 : 0;
  ASSERT_EQ(obj->size(), 6u + shift);
  EXPECT_EQ((*obj)[0].first, "schema");
  EXPECT_EQ((*obj)[1].first, "command");
  EXPECT_EQ((*obj)[2].first, "kernel");
  EXPECT_EQ((*obj)[3].first, "executor");
  if (pooled) {
    EXPECT_EQ((*obj)[4].first, "executor_pool");
  }
  EXPECT_EQ((*obj)[4 + shift].first, "data");
  EXPECT_EQ((*obj)[5 + shift].first, "metrics");
  EXPECT_EQ(member(doc, "schema")->dump(), "\"xbarlife.result.v1\"");
  EXPECT_EQ(member(doc, "command")->dump(), "\"lifetime\"");
  const obs::JsonValue* metrics = member(doc, "metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(member(*metrics, "counters"), nullptr);
  EXPECT_NE(member(*metrics, "gauges"), nullptr);
  EXPECT_NE(member(*metrics, "histograms"), nullptr);
}

TEST(ResultDocumentTest, LifetimeResultJsonMatchesGolden) {
  EXPECT_EQ(lifetime_result_json(sample_lifetime()).dump(),
            read_golden("lifetime_result.json"));
}

TEST(ResultDocumentTest, SessionRecordJsonCarriesAllScalars) {
  const obs::JsonValue j = session_record_json(sample_lifetime().sessions[1]);
  for (const char* key :
       {"session", "applications", "tuning_iterations", "rescued",
        "converged", "start_accuracy", "accuracy", "pulses_total",
        "layer_mean_aged_rmax", "layer_mean_usable_levels"}) {
    EXPECT_NE(member(j, key), nullptr) << key;
  }
  EXPECT_EQ(member(j, "rescued")->dump(), "true");
}

TEST(ResultDocumentTest, SweepEntriesJsonShape) {
  ScenarioSweepEntry entry;
  entry.label = "T+T/r0";
  entry.scenario = Scenario::kTT;
  entry.stream = 0;
  entry.seed = 11;
  entry.wall_ms = 1.25;
  entry.outcome.scenario = Scenario::kTT;
  entry.outcome.software_accuracy = 0.75;
  entry.outcome.tuning_target = 0.7;
  entry.outcome.lifetime = sample_lifetime();
  const obs::JsonValue job = sweep_entry_json(entry, /*with_wall_ms=*/true);
  EXPECT_EQ(member(job, "label")->dump(), "\"T+T/r0\"");
  EXPECT_EQ(member(job, "lifetime_applications")->dump(), "300");
  EXPECT_EQ(member(job, "died")->dump(), "true");
  EXPECT_NE(member(job, "wall_ms"), nullptr);
  // Checkpoint-mode entries carry no wall clock.
  EXPECT_EQ(member(sweep_entry_json(entry, false), "wall_ms"), nullptr);
}

TEST(ResultDocumentTest, SessionTableSubsamplesButKeepsLastRow) {
  LifetimeResult result;
  for (std::size_t s = 0; s < 50; ++s) {
    SessionRecord rec;
    rec.session = s;
    rec.layer_mean_aged_rmax = {1.0};
    rec.layer_mean_usable_levels = {1.0};
    result.sessions.push_back(rec);
  }
  const std::string table = lifetime_session_table(result, 10);
  EXPECT_NE(table.find("| 0 "), std::string::npos);
  EXPECT_NE(table.find("| 49 "), std::string::npos);
  // Subsampled: strictly fewer rows than sessions.
  std::size_t rows = 0;
  for (const char c : table) {
    rows += (c == '\n');
  }
  EXPECT_LT(rows, 50u);
}

// --- profile key -------------------------------------------------------

obs::Profiler sample_profiler_storage;

/// Builds the profiler behind the golden profile report: a command root
/// with two tuning sessions and attributed domain counters.
const obs::Profiler& sample_profiler() {
  static const bool built = [] {
    obs::Profiler& prof = sample_profiler_storage;
    const std::size_t root = prof.begin_span("cmd.demo");
    const std::size_t s1 = prof.begin_span("tuning.session");
    prof.add_counter("tuning.pulses", 12);
    prof.end_span(s1);
    const std::size_t s2 = prof.begin_span("tuning.session");
    prof.add_counter("tuning.pulses", 8);
    prof.add_counter("tuning.iterations", 3);
    prof.end_span(s2);
    prof.end_span(root);
    return true;
  }();
  (void)built;
  return sample_profiler_storage;
}

TEST(ResultDocumentTest, ProfileReportSkeletonMatchesGolden) {
  // Wall-clock fields are nondeterministic, so the golden pins the
  // skeleton (include_times = false): names, counts, merged counters.
  EXPECT_EQ(sample_profiler().report_json(false).dump(),
            read_golden("profile_report.json"));
}

TEST(ResultDocumentTest, ProfilerAppendsTrailingProfileKey) {
  const obs::JsonValue doc =
      result_document("demo", obs::JsonValue::object(), nullptr,
                      &sample_profiler());
  ASSERT_TRUE(doc.is_object());
  const auto* obj = doc.as_object();
  const std::size_t shift = xbar::executor_pool_summary().active ? 1 : 0;
  ASSERT_EQ(obj->size(), 7u + shift);
  EXPECT_EQ(obj->back().first, "profile");
  const obs::JsonValue* profile = member(doc, "profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(member(*profile, "span_count")->dump(), "3");
  // The embedded rollup carries the wall-clock aggregates.
  const std::string text = profile->dump();
  EXPECT_NE(text.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(text.find("\"self_ms\":"), std::string::npos);
  EXPECT_NE(text.find("\"tuning.pulses\":20"), std::string::npos);
}

TEST(ResultDocumentTest, ProfileTableRendersSpansAndCounters) {
  const std::string table = profile_table(sample_profiler());
  EXPECT_NE(table.find("cmd.demo"), std::string::npos);
  EXPECT_NE(table.find("tuning.session"), std::string::npos);
  EXPECT_NE(table.find("tuning.pulses=20"), std::string::npos);
}

// --- model registry ----------------------------------------------------

TEST(ModelRegistryTest, BuiltinsAreRegistered) {
  // The fixed table, in sorted order, each with a description.
  EXPECT_EQ(model_names(),
            (std::vector<std::string>{"lenet5", "mlp", "vgg16"}));
  for (const std::string& name : model_names()) {
    EXPECT_FALSE(describe_model(name).empty()) << name;
  }
  EXPECT_THROW(describe_model("resnet50"), InvalidArgument);
}

TEST(ModelRegistryTest, FactoriesMatchLegacyConfigs) {
  EXPECT_EQ(make_model_config("lenet5").name, lenet_experiment_config().name);
  EXPECT_EQ(make_model_config("vgg16").name, vgg_experiment_config().name);
  const ExperimentConfig mlp = make_model_config("mlp");
  EXPECT_EQ(mlp.model, ExperimentConfig::Model::kMlp);
  EXPECT_FALSE(mlp.mlp_hidden.empty());
}

TEST(ModelRegistryTest, UnknownNameListsAvailableModels) {
  try {
    make_model_config("resnet50");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("resnet50"), std::string::npos);
    EXPECT_NE(msg.find("lenet5"), std::string::npos);
    EXPECT_NE(msg.find("vgg16"), std::string::npos);
  }
}

}  // namespace
}  // namespace xbarlife::core
