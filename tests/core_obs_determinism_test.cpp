// Observability under parallelism: the aggregated metric snapshot and the
// spliced event stream of a sweep must be byte-identical between a serial
// and a threaded run, wall-clock fields aside. This is the acceptance
// gate for instrumenting the fan-out layer at all.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/scenario_runner.hpp"
#include "obs/obs.hpp"
#include "obs/perfetto.hpp"
#include "obs/profiler.hpp"
#include "obs/sink.hpp"
#include "xbar/executor.hpp"
#include "xbar/remote.hpp"

namespace xbarlife::core {
namespace {

/// Restores the serial default so test order never leaks thread state.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(1); }
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.name = "obs-tiny";
  cfg.model = ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 24;
  cfg.dataset.test_per_class = 6;
  cfg.dataset.noise = 0.1;
  cfg.train_config.epochs = 2;
  cfg.train_config.batch = 16;
  cfg.train_config.learning_rate = 0.05;
  cfg.lifetime.max_sessions = 8;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

/// Drops the wall-clock fields ("t_ms" always, "wall_ms" in
/// sweep_job_done payloads) from a serialized event line so the
/// deterministic remainder can be compared byte-for-byte.
std::string strip_wall_clock(const std::string& line) {
  std::string out = line;
  for (const char* key : {"\"t_ms\":", "\"wall_ms\":"}) {
    const std::size_t at = out.find(key);
    if (at == std::string::npos) {
      continue;
    }
    std::size_t end = out.find_first_of(",}", at + std::string(key).size());
    if (end != std::string::npos && out[end] == ',') {
      ++end;  // also eat the separating comma
    }
    out.erase(at, end - at);
  }
  return out;
}

/// Removes every `"key":<value>` occurrence from a serialized JSON
/// string — used to drop the nondeterministic Perfetto ts/dur fields
/// before comparing whole trace documents.
std::string strip_all(std::string out,
                      std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    std::size_t at = 0;
    while ((at = out.find(key, at)) != std::string::npos) {
      std::size_t end = out.find_first_of(",}", at + std::strlen(key));
      if (end != std::string::npos && out[end] == ',') {
        ++end;  // also eat the separating comma
      }
      out.erase(at, end - at);
    }
  }
  return out;
}

struct SweepCapture {
  std::vector<std::string> events;
  std::string metrics_json;
  std::string profile_skeleton;   ///< report_json(false), no wall clock
  std::string perfetto_stripped;  ///< full trace minus ts/dur
  std::vector<ScenarioSweepEntry> entries;
};

/// Replaces a remote process executor with a fresh one built from the
/// same environment, so every captured sweep starts unconnected, as in a
/// new process: a sweep's wire telemetry includes its handshakes.
void fresh_remote_executor() {
  if (xbar::executor_name() == "remote") {
    xbar::configure_remote_executor(xbar::remote_config_from_env());
  }
}

SweepCapture run_sweep(const std::vector<ScenarioJob>& jobs,
                       std::size_t threads) {
  set_parallel_threads(threads);
  fresh_remote_executor();
  obs::Registry registry;
  obs::MemorySink sink;
  obs::EventTrace trace(&sink);
  obs::Profiler profiler;
  const std::size_t root = profiler.begin_span("sweep");
  const ScenarioRunner runner;
  SweepCapture cap;
  cap.entries = runner.run(jobs, obs::Obs{&registry, &trace, &profiler});
  profiler.end_span(root);
  cap.events = sink.lines();
  cap.metrics_json = registry.to_json("_ms").dump();
  cap.profile_skeleton = profiler.report_json(false).dump();
  cap.perfetto_stripped =
      strip_all(obs::perfetto_trace_json(profiler, "test").dump(),
                {"\"ts\":", "\"dur\":"});
  return cap;
}

TEST(ObsDeterminism, ThreadedSweepMatchesSerialByteForByte) {
  ThreadGuard guard;
  const auto jobs = ScenarioRunner::cross(
      tiny_config(), {Scenario::kTT, Scenario::kSTAT}, 2);

  const SweepCapture serial = run_sweep(jobs, 1);
  const SweepCapture threaded = run_sweep(jobs, 4);

  // Metric aggregates: identical after excluding wall-clock histograms.
  EXPECT_EQ(serial.metrics_json, threaded.metrics_json);
  EXPECT_NE(serial.metrics_json.find("aging.pulses"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("lifetime.sessions"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("sweep.jobs"), std::string::npos);

  // Event streams: same length, same payloads once wall-clock fields are
  // stripped — ordering included, since per-job traces are spliced in
  // job-index order.
  ASSERT_EQ(serial.events.size(), threaded.events.size());
  ASSERT_FALSE(serial.events.empty());
  for (std::size_t i = 0; i < serial.events.size(); ++i) {
    EXPECT_EQ(strip_wall_clock(serial.events[i]),
              strip_wall_clock(threaded.events[i]))
        << "event " << i;
  }
}

TEST(ObsDeterminism, ProfilerAggregatesIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto jobs = ScenarioRunner::cross(
      tiny_config(), {Scenario::kTT, Scenario::kSTAT}, 2);

  const SweepCapture serial = run_sweep(jobs, 1);
  const SweepCapture threaded = run_sweep(jobs, 4);

  // Span-aggregate skeleton (names, counts, counters — no wall clock):
  // byte-identical, because job profilers are adopted in job-index order.
  EXPECT_EQ(serial.profile_skeleton, threaded.profile_skeleton);
  EXPECT_NE(serial.profile_skeleton.find("\"sweep.job\""),
            std::string::npos);
  EXPECT_NE(serial.profile_skeleton.find("\"experiment.scenario\""),
            std::string::npos);
  EXPECT_NE(serial.profile_skeleton.find("\"lifetime.session\""),
            std::string::npos);
  EXPECT_NE(serial.profile_skeleton.find("\"tuning.session\""),
            std::string::npos);
  EXPECT_NE(serial.profile_skeleton.find("\"train.fit\""),
            std::string::npos);
  // Domain counters attribute into the span tree.
  EXPECT_NE(serial.profile_skeleton.find("\"tuning.pulses\""),
            std::string::npos);

  // The full Perfetto export — paths, content-addressed ids, tracks,
  // counters — is byte-identical once ts/dur are stripped.
  EXPECT_EQ(serial.perfetto_stripped, threaded.perfetto_stripped);
  EXPECT_NE(serial.perfetto_stripped.find("\"traceEvents\""),
            std::string::npos);
}

/// Label of the job an event line belongs to ("" when it has none).
std::string job_of(const std::string& line) {
  const std::size_t at = line.find("\"job\":\"");
  if (at == std::string::npos) {
    return "";
  }
  const std::size_t start = at + 7;
  return line.substr(start, line.find('"', start) - start);
}

TEST(ObsDeterminism, SharedTrainingGridMatchesSerialAndIsObservedOnce) {
  ThreadGuard guard;
  // ST+T and ST+AT of a replicate share one training and all three
  // scenarios one dataset.
  const auto jobs = ScenarioRunner::cross(
      tiny_config(), {Scenario::kTT, Scenario::kSTT, Scenario::kSTAT}, 2);

  const SweepCapture serial = run_sweep(jobs, 1);
  const SweepCapture threaded = run_sweep(jobs, 4);

  EXPECT_EQ(serial.metrics_json, threaded.metrics_json);
  EXPECT_EQ(serial.profile_skeleton, threaded.profile_skeleton);
  EXPECT_EQ(serial.perfetto_stripped, threaded.perfetto_stripped);
  ASSERT_EQ(serial.events.size(), threaded.events.size());
  for (std::size_t i = 0; i < serial.events.size(); ++i) {
    EXPECT_EQ(strip_wall_clock(serial.events[i]),
              strip_wall_clock(threaded.events[i]))
        << "event " << i;
  }

  // One train_epoch stream per training key, carried by its owner (the
  // key's lowest-index job): T+T and ST+T of each replicate, never ST+AT.
  const std::size_t epochs = tiny_config().train_config.epochs;
  std::map<std::string, std::size_t> epoch_events;
  for (const std::string& line : serial.events) {
    if (line.find("\"event\":\"train_epoch\"") != std::string::npos) {
      ++epoch_events[job_of(line)];
    }
  }
  const std::map<std::string, std::size_t> expected{
      {jobs[0].label, epochs},
      {jobs[1].label, epochs},
      {jobs[3].label, epochs},
      {jobs[4].label, epochs}};
  EXPECT_EQ(epoch_events, expected);
  // train.epochs counts epochs actually run: four trainings, not six.
  EXPECT_NE(serial.metrics_json.find("\"train.epochs\":" +
                                     std::to_string(4 * epochs)),
            std::string::npos)
      << serial.metrics_json;
  EXPECT_NE(serial.profile_skeleton.find("{\"name\":\"train.fit\",\"count\":4"),
            std::string::npos)
      << serial.profile_skeleton;
}

TEST(ObsDeterminism, OneSweepJobDoneEventPerJob) {
  ThreadGuard guard;
  const auto jobs =
      ScenarioRunner::cross(tiny_config(), {Scenario::kTT}, 2);
  const SweepCapture cap = run_sweep(jobs, 2);

  std::vector<std::string> done_labels;
  for (const std::string& line : cap.events) {
    if (line.find("\"event\":\"sweep_job_done\"") != std::string::npos) {
      const std::size_t at = line.find("\"job\":\"");
      ASSERT_NE(at, std::string::npos) << line;
      const std::size_t start = at + 7;
      done_labels.push_back(
          line.substr(start, line.find('"', start) - start));
    }
  }
  ASSERT_EQ(done_labels.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(done_labels[i], jobs[i].label);
  }
}

TEST(ObsDeterminism, SessionEventsAreOrderedWithinEachJob) {
  ThreadGuard guard;
  const auto jobs =
      ScenarioRunner::cross(tiny_config(), {Scenario::kSTAT}, 2);
  const SweepCapture cap = run_sweep(jobs, 2);

  // Per job: session_start events carry strictly increasing session
  // indices, and every session_start is eventually followed by a
  // session_end before the job's sweep_job_done marker.
  std::map<std::string, int> last_session;
  std::map<std::string, int> open_sessions;
  for (const std::string& line : cap.events) {
    const std::size_t at = line.find("\"job\":\"");
    if (at == std::string::npos) {
      continue;
    }
    const std::size_t start = at + 7;
    const std::string job =
        line.substr(start, line.find('"', start) - start);
    if (line.find("\"event\":\"session_start\"") != std::string::npos) {
      const std::size_t s = line.find("\"session\":");
      ASSERT_NE(s, std::string::npos);
      const int session = std::stoi(line.substr(s + 10));
      auto it = last_session.find(job);
      if (it != last_session.end()) {
        EXPECT_GT(session, it->second) << line;
      }
      last_session[job] = session;
      ++open_sessions[job];
    } else if (line.find("\"event\":\"session_end\"") !=
               std::string::npos) {
      --open_sessions[job];
      EXPECT_GE(open_sessions[job], 0) << line;
    } else if (line.find("\"event\":\"sweep_job_done\"") !=
               std::string::npos) {
      EXPECT_EQ(open_sessions[job], 0) << line;
    }
  }
  EXPECT_EQ(last_session.size(), jobs.size());
}

TEST(ObsDeterminism, MetricsOnlyHandleCollectsWithoutTrace) {
  ThreadGuard guard;
  const auto jobs =
      ScenarioRunner::cross(tiny_config(), {Scenario::kTT}, 1);
  obs::Registry registry;
  const ScenarioRunner runner;
  const auto entries = runner.run(jobs, obs::Obs{&registry, nullptr});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(registry.counter("sweep.jobs").value(), 1u);
  EXPECT_GT(registry.counter("aging.pulses").value(), 0u);
  EXPECT_GT(registry.counter("lifetime.sessions").value(), 0u);
}

}  // namespace
}  // namespace xbarlife::core
