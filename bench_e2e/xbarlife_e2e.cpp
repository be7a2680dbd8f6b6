// End-to-end lifetime benchmark program.
//
// Runs one named workload per process. A workload is a closed batch of
// train -> map -> lifetime jobs under T+T / ST+T / ST+AT, built from
// --seed exactly the way the CLI's sweep/faults commands build theirs.
//
//   --mode run    times the batch through the libraries' own entry points
//                 (core::ScenarioRunner::run, or core::run_scenario with a
//                 checkpoint store) and prints every job's deterministic
//                 outcome.
//   --mode walk   repeats every job step by step through public calls and
//                 records its own spans around each layer; prints the span
//                 rollup, layer counters and the same job outcomes, which
//                 must equal the untraced ones. No span lives inside the
//                 libraries: the walk is the benchmark's own.
//   --mode setup  stops right after set-up, so run.py can sample set-up
//                 time cheaply.
//
// Output is one JSON line on stdout; bench_e2e/run.py does all checking
// (goldens, rep-to-rep determinism, walk == run).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/model_registry.hpp"
#include "core/scenario_runner.hpp"
#include "net/wire.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"
#include "resilience/escalation.hpp"
#include "tensor/kernels/kernels.hpp"
#include "xbar/executor.hpp"
#include "xbar/remote.hpp"

using namespace xbarlife;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct FaultPoint {
  const char* label;
  double stuck_off;
  double stuck_on;
};

struct Workload {
  std::string name;
  std::string model;  ///< core::ModelRegistry name
  std::vector<core::Scenario> scenarios;
  std::size_t replicates = 1;
  std::size_t max_sessions = 0;  ///< 0 keeps the model's own cap
  std::size_t threads = 1;
  std::string remote;  ///< endpoint list; empty runs the local sim executor
  std::vector<FaultPoint> faults;  ///< empty: ideal arrays
  double write_noise = 0.0;
  double read_noise = 0.0;
  std::size_t spare_rows = 0;
  bool checkpoint = false;  ///< one snapshot per session (run_scenario store)
};

const std::vector<core::Scenario> kAllScenarios{
    core::Scenario::kTT, core::Scenario::kSTT, core::Scenario::kSTAT};

// bench_e2e/README.md records why each workload exists. Horizons are capped
// so a rep takes a few seconds; T+T jobs of the MLP sweep still reach the
// end of life, whose endurance-bounded tuning effort varies little by seed.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    {
      // The paper's pipeline on the conv net: nn kernels dominate.
      Workload l;
      l.name = "lenet5-table1";
      l.model = "lenet5";
      l.scenarios = kAllScenarios;
      l.replicates = 2;
      l.max_sessions = 6;
      l.threads = 2;
      w.push_back(l);
    }
    {
      // Large arrays, small net: crossbar pulses and drift dominate; 12 jobs
      // exercise the fan-out.
      Workload m;
      m.name = "mlp-sweep";
      m.model = "mlp";
      m.scenarios = kAllScenarios;
      m.replicates = 4;
      m.max_sessions = 12;
      m.threads = 2;
      w.push_back(m);
    }
    {
      // Every programming sequence crosses the wire to a 3-worker loopback
      // pool. Skewed-trained jobs only: early in life they re-converge in a
      // few iterations, so the traffic per rep barely depends on the seed.
      // One thread: with more, array-to-worker ownership depends on timing.
      Workload p;
      p.name = "mlp-pool3";
      p.model = "mlp";
      p.scenarios = {core::Scenario::kSTT, core::Scenario::kSTAT};
      p.replicates = 2;
      p.max_sessions = 6;
      p.threads = 1;
      p.remote = "loopback,loopback,loopback";
      w.push_back(p);
    }
    {
      // Faulty, noisy arrays walk the escalation ladder, and every session
      // is checkpointed: the only workload where resilience and persist
      // do work.
      Workload f;
      f.name = "mlp-faults-ckpt";
      f.model = "mlp";
      f.scenarios = {core::Scenario::kTT, core::Scenario::kSTAT};
      f.max_sessions = 6;
      f.threads = 1;
      f.faults = {{"off0.02", 0.02, 0.0}, {"on0.01", 0.0, 0.01}};
      f.write_noise = 0.02;
      f.read_noise = 0.01;
      f.spare_rows = 4;
      f.checkpoint = true;
      w.push_back(f);
    }
    {
      // Not a benchmark workload: the quick end-to-end check of the walk.
      Workload s;
      s.name = "smoke";
      s.model = "mlp";
      s.scenarios = {core::Scenario::kTT, core::Scenario::kSTAT};
      s.max_sessions = 3;
      s.threads = 1;
      w.push_back(s);
    }
    return w;
  }();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return w;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Hash of everything that defines a workload's inputs; run.py stamps it
/// into the result fingerprint so compare.py never mixes definitions.
std::string config_hash(const Workload& w) {
  persist::Fingerprint fp;
  fp.add(std::string_view{w.name}).add(std::string_view{w.model});
  for (const core::Scenario s : w.scenarios) {
    fp.add(std::string_view{core::to_string(s)});
  }
  fp.add(static_cast<std::uint64_t>(w.replicates))
      .add(static_cast<std::uint64_t>(w.max_sessions))
      .add(static_cast<std::uint64_t>(w.threads))
      .add(std::string_view{w.remote});
  for (const FaultPoint& f : w.faults) {
    fp.add(std::string_view{f.label}).add(f.stuck_off).add(f.stuck_on);
  }
  fp.add(w.write_noise)
      .add(w.read_noise)
      .add(static_cast<std::uint64_t>(w.spare_rows))
      .add(static_cast<std::uint64_t>(w.checkpoint));
  return fp.hex();
}

/// The workload's job list. Ideal-array workloads use the sweep command's
/// ScenarioRunner::cross; fault workloads follow the faults command's grid
/// order (point, replicate, scenario), each replicate on its own stream.
std::vector<core::ScenarioJob> build_jobs(const Workload& w) {
  core::ExperimentConfig base = core::make_model_config(w.model);
  if (w.max_sessions > 0) {
    base.lifetime.max_sessions = w.max_sessions;
  }
  if (w.faults.empty()) {
    return core::ScenarioRunner::cross(base, w.scenarios, w.replicates);
  }
  std::vector<core::ScenarioJob> jobs;
  for (const FaultPoint& f : w.faults) {
    for (std::size_t rep = 0; rep < w.replicates; ++rep) {
      for (const core::Scenario s : w.scenarios) {
        core::ScenarioJob job;
        job.label = std::string(f.label) + "/" + core::to_string(s) + "/r" +
                    std::to_string(rep);
        job.config = base;
        tuning::HardwareFaultConfig& hf = job.config.faults;
        hf.nonideal.stuck_off_fraction = f.stuck_off;
        hf.nonideal.stuck_on_fraction = f.stuck_on;
        hf.nonideal.write_noise_sigma = w.write_noise;
        hf.nonideal.read_noise_sigma = w.read_noise;
        hf.spare_rows = w.spare_rows;
        job.scenario = s;
        job.stream = rep;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

/// The job's config with its forked seeds, drawn exactly as
/// ScenarioRunner::run_single draws them. The walk and the checkpointed
/// path need them outside the runner; a divergence shows up as a walk
/// mismatch.
core::ExperimentConfig forked_config(const core::ScenarioJob& job,
                                     std::uint64_t sweep_seed) {
  Rng stream_rng = Rng(sweep_seed).fork(job.stream);
  core::ExperimentConfig cfg = job.config;
  cfg.seed = stream_rng();
  cfg.dataset.seed = stream_rng();
  cfg.lifetime.drift_seed = stream_rng();
  cfg.faults.fault_seed = stream_rng();
  return cfg;
}

std::string checkpoint_path(const std::string& dir, std::size_t job) {
  return dir + "/job" + std::to_string(job) + ".ckpt";
}

/// A private, initially empty checkpoint directory (a store that finds an
/// old snapshot would resume instead of running); removed on exit.
class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& base)
      : path_(base + "/e2e-" + std::to_string(getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~CheckpointDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  CheckpointDir(const CheckpointDir&) = delete;
  CheckpointDir& operator=(const CheckpointDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Outcomes

struct JobResult {
  core::ScenarioOutcome outcome;
  /// Model, dataset, drift and fault seeds the job ran with.
  std::array<std::uint64_t, 4> seeds{};
  bool failed = false;
  std::string error;
};

std::array<std::uint64_t, 4> seeds_of(const core::ExperimentConfig& cfg) {
  return {cfg.seed, cfg.dataset.seed, cfg.lifetime.drift_seed,
          cfg.faults.fault_seed};
}

/// FNV-1a over every field of every session record.
std::string records_digest(const core::LifetimeResult& life) {
  persist::Fingerprint fp;
  for (const core::SessionRecord& r : life.sessions) {
    fp.add(static_cast<std::uint64_t>(r.session))
        .add(r.applications)
        .add(static_cast<std::uint64_t>(r.tuning_iterations))
        .add(static_cast<std::uint64_t>(r.rescued))
        .add(static_cast<std::uint64_t>(r.converged))
        .add(r.start_accuracy)
        .add(r.accuracy)
        .add(r.pulses_total);
    for (const double v : r.layer_mean_aged_rmax) {
      fp.add(v);
    }
    for (const double v : r.layer_mean_usable_levels) {
      fp.add(v);
    }
    fp.add(static_cast<std::uint64_t>(r.resilience_active))
        .add(static_cast<std::uint64_t>(r.degraded));
    for (const std::string& rung : r.rescue_rungs) {
      fp.add(std::string_view{rung});
    }
    fp.add(static_cast<std::uint64_t>(r.cells_faulty))
        .add(static_cast<std::uint64_t>(r.cells_clamped))
        .add(static_cast<std::uint64_t>(r.cells_dead));
  }
  return fp.hex();
}

obs::JsonValue job_json(const core::ScenarioJob& job, const JobResult& r) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("label", job.label);
  if (r.failed) {
    out.set("failed", true);
    out.set("error", r.error);
    return out;
  }
  const core::LifetimeResult& life = r.outcome.lifetime;
  obs::JsonValue seeds = obs::JsonValue::array();
  for (const std::uint64_t s : r.seeds) {
    seeds.push_back(s);
  }
  out.set("seeds", std::move(seeds));
  out.set("software_accuracy", r.outcome.software_accuracy);
  out.set("tuning_target", r.outcome.tuning_target);
  out.set("lifetime_applications", life.lifetime_applications);
  out.set("sessions", life.sessions.size());
  out.set("died", life.died);
  out.set("pulses_total",
          life.sessions.empty() ? 0 : life.sessions.back().pulses_total);
  out.set("records_fnv", records_digest(life));
  return out;
}

// ---------------------------------------------------------------------------
// Untraced run: the timed workload call.

std::vector<JobResult> run_workload(const Workload& w,
                                    const std::vector<core::ScenarioJob>& jobs,
                                    std::uint64_t seed,
                                    const std::string& tmp_dir) {
  std::vector<JobResult> results(jobs.size());
  if (!w.checkpoint) {
    const core::ScenarioRunner runner(seed);
    std::vector<core::ScenarioSweepEntry> entries = runner.run(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      core::ScenarioSweepEntry& e = entries[i];
      results[i].outcome = std::move(e.outcome);
      results[i].seeds = {e.seed, e.data_seed, e.drift_seed, e.fault_seed};
      results[i].failed = e.failed;
      results[i].error = e.error;
    }
    return results;
  }
  // One fresh checkpoint store per job: run_scenario snapshots the whole
  // lifetime state after every session.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::ExperimentConfig cfg = forked_config(jobs[i], seed);
    results[i].seeds = seeds_of(cfg);
    persist::CheckpointStore store(checkpoint_path(tmp_dir, i));
    try {
      results[i].outcome =
          core::run_scenario(cfg, jobs[i].scenario, {}, &store);
    } catch (const std::exception& e) {
      results[i].failed = true;
      results[i].error = e.what();
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// Traced walk

/// In-memory span log of one job: the job label is the trace id, parents
/// are indices into the same log.
class SpanLog {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  struct Record {
    const char* name;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::size_t open(const char* name) {
    const std::size_t parent = stack_.empty() ? kRoot : stack_.back();
    records_.push_back({name, parent, Clock::now(), {}});
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void close(std::size_t index) {
    records_[index].end = Clock::now();
    stack_.pop_back();
  }
  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_;
};

/// Layer counters the walk reads off public return values, by name.
using WalkCounters = std::map<std::string, std::uint64_t>;

/// What the walk checkpoints each session: the full hardware state through
/// the same HardwareNetwork::save_state codec LifetimeSimulator snapshots
/// use, plus the drift stream, tuner cursor and session count.
class WalkSnapshot final : public persist::Checkpointable {
 public:
  WalkSnapshot(const tuning::HardwareNetwork& hw, const Rng& drift,
               const tuning::OnlineTuner& tuner, std::size_t sessions)
      : hw_(hw), drift_(drift), tuner_(tuner), sessions_(sessions) {}

  std::string kind() const override { return "lifetime"; }
  std::uint64_t fingerprint() const override { return 0; }
  std::string serialize() const override {
    persist::StateWriter w;
    w.u64(sessions_);
    persist::write_rng_state(w, drift_);
    w.u64(tuner_.cursor());
    hw_.save_state(w);
    return w.data();
  }
  void restore(std::string_view) override {
    throw std::logic_error("the benchmark walk never resumes");
  }

 private:
  const tuning::HardwareNetwork& hw_;
  const Rng& drift_;
  const tuning::OnlineTuner& tuner_;
  std::size_t sessions_;
};

/// Mirrors LifetimeSimulator::apply_drift (a private step of the lifetime
/// loop) through the public per-cell Crossbar calls.
void apply_drift(tuning::HardwareNetwork& hw, Rng& rng, double sigma) {
  if (sigma == 0.0) {
    return;
  }
  for (std::size_t li = 0; li < hw.layer_count(); ++li) {
    xbar::Crossbar& xb = *hw.layer(li).xbar;
    for (std::size_t r = 0; r < xb.rows(); ++r) {
      for (std::size_t c = 0; c < xb.cols(); ++c) {
        const double factor = 1.0 + rng.gaussian(0.0, sigma);
        xb.drift_cell(r, c, xb.cell(r, c).resistance() * std::max(factor, 0.05));
      }
    }
  }
}

/// LifetimeSimulator::run, step by step, with a span around each layer.
core::LifetimeResult walk_lifetime(const core::LifetimeConfig& lc,
                                   tuning::HardwareNetwork& hw,
                                   const data::Dataset& tune_data,
                                   const data::Dataset& eval_data,
                                   tuning::MappingPolicy policy,
                                   persist::CheckpointStore* store,
                                   SpanLog& log, WalkCounters& k) {
  tuning::OnlineTuner tuner(lc.tuning);
  Rng drift_rng(lc.drift_seed);
  core::LifetimeResult result;
  const bool ladder_active = lc.resilience.active_for(hw.fault_config());
  const resilience::EscalationLadder ladder(lc.resilience);
  const bool aware = policy == tuning::MappingPolicy::kAgingAware;

  const data::Dataset slice = eval_data.head(lc.selection_eval_samples);
  nn::Network& net = hw.network();
  const tuning::NetworkEvaluator evaluator = [&]() {
    const Scoped span(log, "nn.range_eval");
    if (lc.tuning.quantized_eval) {
      return net.evaluate_quantized(slice.images, slice.labels,
                                    hw.quant_specs());
    }
    return net.evaluate(slice.images, slice.labels);
  };
  const auto deploy = [&](double keep_threshold, double switch_margin) {
    const Scoped span(log, "tuning.deploy");
    for (const mapping::MappingReport& rep :
         hw.deploy(policy, lc.levels, aware ? evaluator : nullptr,
                   keep_threshold, switch_margin)) {
      k["cells_programmed"] += rep.programmed_cells;
      k["cells_clamped"] += rep.clamped_cells;
    }
  };
  const auto tune = [&]() {
    const Scoped span(log, "tuning.tune");
    const tuning::TuningResult tr = tuner.tune(hw, tune_data, eval_data);
    ++k["tune_calls"];
    k["tune_converged"] += tr.converged;
    k["tune_iterations"] += tr.iterations;
    k["tune_pulses"] += tr.pulses;
    return tr;
  };

  deploy(/*keep_threshold=*/2.0, /*switch_margin=*/0.05);
  for (std::size_t session = 0; session < lc.max_sessions && !result.died;
       ++session) {
    const Scoped session_span(log, "lifetime.session");
    ++k["sessions"];
    if (session > 0) {
      const Scoped span(log, "xbar.drift");
      apply_drift(hw, drift_rng, lc.drift.sigma);
    }
    tuning::TuningResult tr = tune();
    core::SessionRecord rec;
    rec.session = session;
    rec.tuning_iterations = tr.iterations;
    rec.start_accuracy = tr.start_accuracy;
    if (!tr.converged) {
      const Scoped span(log, "resilience.rescue");
      rec.rescued = true;
      ++k["rescues"];
      if (ladder_active) {
        const resilience::RescueContext ctx{hw,
                                            tuner,
                                            tune_data,
                                            eval_data,
                                            policy,
                                            lc.levels,
                                            evaluator,
                                            lc.tuning.target_accuracy,
                                            lc.rescue_switch_margin};
        const resilience::RescueOutcome ro =
            ladder.rescue(ctx, session, tr.final_accuracy, {});
        rec.tuning_iterations += ro.iterations;
        rec.rescue_rungs = ro.rungs;
        rec.degraded = ro.degraded;
        tr.converged = ro.converged;
        tr.final_accuracy = ro.accuracy;
        k["rungs"] += ro.rungs.size();
      } else {
        deploy(lc.tuning.target_accuracy, lc.rescue_switch_margin);
        tr = tune();
        rec.tuning_iterations += tr.iterations;
      }
      k["rescues_saved"] += tr.converged || rec.degraded;
    }
    rec.converged = tr.converged;
    rec.accuracy = tr.final_accuracy;
    rec.pulses_total = hw.total_pulses();
    {
      const Scoped span(log, "xbar.aging_stats");
      for (const xbar::CrossbarAgingStats& s : hw.aging_stats()) {
        rec.layer_mean_aged_rmax.push_back(s.mean_aged_r_max);
        rec.layer_mean_usable_levels.push_back(s.mean_usable_levels);
      }
    }
    if (ladder_active) {
      rec.resilience_active = true;
      const resilience::FaultCensus c = resilience::census(hw);
      rec.cells_faulty = c.manufacture;
      rec.cells_clamped = c.clamped;
      rec.cells_dead = c.dead;
    }
    if (tr.converged || rec.degraded) {
      result.lifetime_applications += lc.apps_per_session;
      k["degraded_sessions"] += rec.degraded;
    } else {
      result.died = true;
    }
    rec.applications = result.lifetime_applications;
    result.sessions.push_back(rec);
    if (store != nullptr) {
      const Scoped span(log, "persist.save");
      store->save(WalkSnapshot(hw, drift_rng, tuner, result.sessions.size()));
      k["bytes_written"] += std::filesystem::file_size(store->path());
    }
  }
  return result;
}

/// core::run_scenario, step by step.
JobResult walk_job(const core::ScenarioJob& job, std::uint64_t seed,
                   persist::CheckpointStore* store, SpanLog& log,
                   WalkCounters& k, obs::Registry& registry) {
  const Scoped job_span(log, "job");
  JobResult r;
  const core::ExperimentConfig cfg = forked_config(job, seed);
  r.seeds = seeds_of(cfg);
  const core::Scenario s = job.scenario;
  try {
    std::unique_ptr<core::TrainedModel> tm;
    {
      const Scoped span(log, "core.train_model");
      tm = std::make_unique<core::TrainedModel>(
          core::train_model(cfg, core::uses_skewed_training(s)));
    }
    std::unique_ptr<data::TrainTest> data;
    {
      const Scoped span(log, "data.make_synthetic");
      data = std::make_unique<data::TrainTest>(
          data::make_synthetic(cfg.dataset));
    }
    r.outcome.scenario = s;
    r.outcome.software_accuracy = tm->history.final_test_accuracy;
    r.outcome.tuning_target =
        cfg.absolute_tuning_target > 0.0
            ? cfg.absolute_tuning_target
            : cfg.target_accuracy_fraction * r.outcome.software_accuracy;
    core::LifetimeConfig lc = cfg.lifetime;
    lc.tuning.target_accuracy = r.outcome.tuning_target;

    std::unique_ptr<tuning::HardwareNetwork> hw;
    {
      const Scoped span(log, "tuning.hw_build");
      hw = std::make_unique<tuning::HardwareNetwork>(tm->network, cfg.device,
                                                     cfg.aging, cfg.faults);
    }
    hw->attach_metrics(registry);
    r.outcome.lifetime = walk_lifetime(lc, *hw, data->train, data->test,
                                       core::mapping_policy(s), store, log, k);
  } catch (const std::exception& e) {
    r.failed = true;
    r.error = e.what();
  }
  return r;
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time = duration minus the part covered by direct children.
void accumulate(const SpanLog& log, std::map<std::string, SpanTotals>& out) {
  const auto& recs = log.records();
  std::vector<double> child_s(recs.size(), 0.0);
  for (const SpanLog::Record& rec : recs) {
    if (rec.parent != SpanLog::kRoot) {
      child_s[rec.parent] += seconds(rec.end - rec.start);
    }
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    SpanTotals& t = out[recs[i].name];
    const double dur = seconds(recs[i].end - recs[i].start);
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
  }
}

/// Chrome trace_event JSON: one complete ("X") event per span, one track
/// per job, job label as trace id.
void write_chrome_trace(const std::string& path,
                        const std::vector<core::ScenarioJob>& jobs,
                        const std::vector<SpanLog>& logs,
                        Clock::time_point epoch) {
  obs::JsonValue events = obs::JsonValue::array();
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (std::size_t j = 0; j < logs.size(); ++j) {
    const auto& recs = logs[j].records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      obs::JsonValue args = obs::JsonValue::object();
      args.set("trace_id", jobs[j].label);
      args.set("span_id", i);
      if (recs[i].parent != SpanLog::kRoot) {
        args.set("parent_id", recs[i].parent);
      }
      obs::JsonValue ev = obs::JsonValue::object();
      ev.set("name", recs[i].name);
      ev.set("ph", "X");
      ev.set("ts", us(recs[i].start));
      ev.set("dur", us(recs[i].end) - us(recs[i].start));
      ev.set("pid", 1);
      ev.set("tid", j + 1);
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));
    }
  }
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

/// Remote/pool link telemetry the walk attached via set_remote_metrics and
/// set_wire_metrics.
obs::JsonValue net_json(obs::Registry& reg) {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t max_endpoint = 0;
  reg.visit_counters([&](const std::string& name, std::uint64_t v) {
    const auto ends = [&](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (name.rfind("executor.", 0) != 0) {
      return;
    }
    if (ends(".requests")) {
      requests += v;
      max_endpoint = std::max(max_endpoint, v);
    } else if (ends(".retries") || ends(".failovers")) {
      retries += v;
    }
  });
  const double bytes = reg.histogram("net.frame_bytes_out").sum() +
                       reg.histogram("net.frame_bytes_in").sum();
  obs::JsonValue out = obs::JsonValue::object();
  out.set("requests", requests);
  out.set("retries", retries);
  out.set("bytes", bytes);
  out.set("endpoint_max_requests", max_endpoint);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::int64_t mono_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  std::string mode = "run";
  std::string kernel;
  std::string tmp_dir = ".";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--kernel") {
      a.kernel = value;
    } else if (flag == "--tmp") {
      a.tmp_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.mode != "run" && a.mode != "walk" && a.mode != "setup") {
    throw std::invalid_argument("--mode must be run, walk or setup");
  }
  return a;
}

int run_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = find_workload(args.workload);

  // Set-up: thread pool, kernel and executor resolution, pool construction.
  set_parallel_threads(w.threads);
  if (!args.kernel.empty()) {
    kernels::set_kernel(args.kernel);
  }
  kernels::select();
  if (w.remote.empty()) {
    xbar::set_executor("sim");
  } else {
    xbar::RemoteConfig rc;
    rc.address = w.remote;
    xbar::configure_remote_executor(rc);
    xbar::set_executor("remote");
  }
  const std::vector<core::ScenarioJob> jobs = build_jobs(w);
  // The walk's crossbar, executor and wire counters (all atomic).
  obs::Registry registry;
  if (args.mode == "walk") {
    xbar::set_remote_metrics(&registry);
    net::set_wire_metrics(&registry);
  }
  const Clock::time_point ready = Clock::now();

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("mode", args.mode);
  doc.set("workload", w.name);
  doc.set("seed", args.seed);
  doc.set("config_hash", config_hash(w));
  doc.set("threads", parallel_threads());
  doc.set("kernel", kernels::kernel_name());
  doc.set("executor", xbar::executor_name());
  doc.set("ready_ns", mono_ns(ready));
  if (args.mode == "setup") {
    std::cout << doc.dump() << "\n";
    return 0;
  }

  std::unique_ptr<CheckpointDir> ckpt_dir;
  if (w.checkpoint) {
    ckpt_dir = std::make_unique<CheckpointDir>(args.tmp_dir);
  }
  // Timing starts after the checkpoint directory exists.
  const Clock::time_point start = Clock::now();
  std::vector<JobResult> results;
  obs::JsonValue spans = obs::JsonValue::object();
  obs::JsonValue counters = obs::JsonValue::object();
  double wall_s = 0.0;
  if (args.mode == "run") {
    results = run_workload(w, jobs, args.seed,
                           ckpt_dir ? ckpt_dir->path() : std::string());
    wall_s = seconds(Clock::now() - start);
  } else {
    results.resize(jobs.size());
    std::vector<SpanLog> logs(jobs.size());
    std::vector<WalkCounters> per_job(jobs.size());
    // One job per chunk on the shared pool, like ScenarioRunner::run.
    parallel_for(0, jobs.size(), 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::unique_ptr<persist::CheckpointStore> store;
        if (ckpt_dir) {
          store = std::make_unique<persist::CheckpointStore>(
              checkpoint_path(ckpt_dir->path(), i));
        }
        results[i] = walk_job(jobs[i], args.seed, store.get(), logs[i],
                              per_job[i], registry);
      }
    });
    wall_s = seconds(Clock::now() - start);
    // The process-wide executor outlives `registry`.
    xbar::set_remote_metrics(nullptr);
    net::set_wire_metrics(nullptr);

    std::map<std::string, SpanTotals> totals;
    WalkCounters k{
        {"pulses", registry.counter("aging.pulses").value()},
        {"sequences", registry.counter("executor.sequences").value()},
        {"column_batches",
         registry.counter("executor.column_batches").value()}};
    obs::JsonValue job_walls = obs::JsonValue::array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      accumulate(logs[i], totals);
      for (const auto& [name, v] : per_job[i]) {
        k[name] += v;
      }
      const auto& recs = logs[i].records();
      job_walls.push_back(recs.empty()
                              ? 0.0
                              : seconds(recs.front().end - recs.front().start));
    }
    for (const auto& [name, t] : totals) {
      obs::JsonValue s = obs::JsonValue::object();
      s.set("calls", t.calls);
      s.set("total_s", t.total_s);
      s.set("self_s", t.self_s);
      spans.set(name, std::move(s));
    }
    for (const auto& [name, v] : k) {
      counters.set(name, v);
    }
    counters.set("job_wall_s", std::move(job_walls));
    counters.set("net", net_json(registry));
    if (!args.trace_out.empty()) {
      write_chrome_trace(args.trace_out, jobs, logs, start);
    }
  }

  std::uint64_t sessions = 0;
  obs::JsonValue jobs_json = obs::JsonValue::array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sessions += results[i].outcome.lifetime.sessions.size();
    jobs_json.push_back(job_json(jobs[i], results[i]));
  }
  doc.set("wall_s", wall_s);
  doc.set("sessions", sessions);
  doc.set("peak_rss_mb", peak_rss_mb());
  doc.set("jobs", std::move(jobs_json));
  if (args.mode == "walk") {
    doc.set("spans", std::move(spans));
    doc.set("counters", std::move(counters));
  }
  std::cout << doc.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "xbarlife_e2e: " << e.what() << "\n";
    return 2;
  }
}
