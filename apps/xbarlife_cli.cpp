// xbarlife command-line interface.
//
//   xbarlife train     --model <name> [--skewed] [--out w.bin]
//   xbarlife lifetime  --model <name> --scenario tt|stt|stat
//                      [--sessions N] [--quantized] [--strict]
//                      [--stuck-off F] [--stuck-on F] [--write-noise S]
//                      [--read-noise S] [--line-resistance R]
//                      [--spare-rows N] [--no-ladder]
//   xbarlife sweep     --model <name> [--replicates N] [--quantized]
//                      [--strict] [--checkpoint PATH] [--job-timeout MS]
//   xbarlife faults    --model <name> [--scenario LIST] [--stuck-off LIST]
//                      [--stuck-on LIST] [--write-noise LIST] [--read-noise LIST]
//                      [--compare-ladder] [--checkpoint PATH]
//                      [--job-timeout MS] [--strict]
//   xbarlife device    [--pulses N] [--target-r OHMS]
//   xbarlife worker-status [--remote ADDR]
//   xbarlife models
//   xbarlife info
//
// Global options (every command):
//   --threads N      worker-pool size (0 = all cores); results are
//                    bit-identical at any thread count
//   --kernel V       compute-kernel dispatch variant (auto|scalar|avx2,
//                    default auto or $XBARLIFE_KERNEL); each variant is
//                    deterministic on its own, goldens pin scalar
//   --executor V     crossbar programming backend (auto|sim|remote,
//                    default auto/sim or $XBARLIFE_EXECUTOR); sim batches
//                    pulse sequences per column, bit-identical to the
//                    one-call-per-cell reference the tests check it
//                    against; remote ships sequences over xbarlife.wire.v1
//                    to a worker and falls back to sim for the rest of the
//                    run when the link dies
//   --remote ADDR    remote-executor endpoint: loopback (in-process worker
//                    thread, default), unix:/path, or host:port (see
//                    xbarlife-worker --listen); also $XBARLIFE_REMOTE.
//                    A comma-separated list ("unix:/a,unix:/b,host:port")
//                    builds a worker pool: each array is owned by one
//                    endpoint (rendezvous hashing), failures fail over to
//                    the next live worker, and sim fallback engages only
//                    when the whole pool is down (docs/programming.md,
//                    "Worker pools & failover")
//   --remote-faults SPEC  deterministic transport fault injection for the
//                    remote link, e.g. "seed=7,drop=0.1,corrupt=0.05,
//                    dup=0.02,disconnect=0.01,delay_ms=1"; also
//                    $XBARLIFE_REMOTE_FAULTS. Against a pool, a
//                    ';'-separated list assigns spec i to endpoint i
//                    (missing/empty segments leave that link clean)
//   --json <path|->  write the versioned machine-readable result document
//                    (schema xbarlife.result.v1, see docs/output_schema.md)
//                    as the final JSONL line; "-" streams to stdout and
//                    silences the human-readable report
//   --trace <path|-> stream structured JSONL events (session_start,
//                    tune_iter, rescue, eol, sweep_job_done, ...); defaults
//                    to $XBARLIFE_TRACE, or to the --json stream when that
//                    is set
//   --profile <path|-> record a hierarchical span profile; writes a
//                    Chrome trace_event/Perfetto JSON file (open it in
//                    ui.perfetto.dev), embeds the span-aggregate rollup
//                    into the result document under "profile", and prints
//                    the per-phase table; defaults to $XBARLIFE_PROFILE
//   --checkpoint PATH (train/lifetime/sweep/faults) write crash-safe
//                    "xbarlife.ckpt.v1" snapshots at every checkpoint
//                    boundary and resume from the newest valid generation;
//                    also arms SIGINT/SIGTERM for a cooperative shutdown
//   --chunk N        (sweep/faults) jobs per checkpoint snapshot
//                    (default 16); a killed run loses at most one chunk
//   --job-timeout MS (lifetime/sweep/faults) per-job cooperative watchdog;
//                    a sweep/campaign job over budget is recorded as
//                    failed+timed_out, isolated like any other job error;
//                    on lifetime (no fan-out) expiry exits 8
//   --status-file PATH (train/lifetime/sweep/faults) atomically rewrite a
//                    live xbarlife.progress.v1 snapshot (phase, done/total,
//                    ETA, counter rollup) as the run advances, at a bounded
//                    cadence — poll it with `watch cat PATH`
//
// Exit codes: 0 ok, 2 invalid argument/usage, 3 I/O failure,
// 4 failed convergence (--strict), 5 internal error, 6 interrupted by a
// cooperative shutdown (snapshot written, resumable), 7 checkpoint
// corrupt with no valid fallback generation, 8 job/watchdog timeout,
// 1 anything else. The full table lives in docs/output_schema.md.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/fault_campaign.hpp"
#include "core/model_registry.hpp"
#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "core/sweep_checkpoint.hpp"
#include "device/memristor.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/perfetto.hpp"
#include "obs/sink.hpp"
#include "persist/checkpoint.hpp"
#include "tensor/kernels/kernels.hpp"
#include "xbar/executor.hpp"
#include "xbar/pool.hpp"
#include "xbar/remote.hpp"

using namespace xbarlife;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const {
    return options.count(name) > 0;
  }
  std::string get(const std::string& name,
                  const std::string& fallback) const {
    auto it = options.find(name);
    return it != options.end() && !it->second.empty() ? it->second
                                                      : fallback;
  }
  /// A numeric flag's value, or `fallback` when the flag is absent. A
  /// count (unsigned T) takes digits only; a double must be finite. A flag
  /// given without a value or with a malformed one throws InvalidArgument
  /// naming the flag (exit 2).
  template <typename T>
  T number(const std::string& name, T fallback) const {
    auto it = options.find(name);
    if (it == options.end()) {
      return fallback;
    }
    if (it->second.empty()) {
      throw xbarlife::InvalidArgument("--" + name + " needs a value");
    }
    if constexpr (std::is_floating_point_v<T>) {
      return parse_real(it->second, "--" + name);
    } else {
      static_assert(std::is_unsigned_v<T>);
      return static_cast<T>(parse_count(it->second, "--" + name));
    }
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw xbarlife::InvalidArgument("unexpected argument: " + token);
    }
    token = token.substr(2);
    std::string value;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    args.options[token] = value;
  }
  return args;
}

/// Output wiring shared by every command: an optional result-document
/// stream (--json), an optional event trace (--trace / $XBARLIFE_TRACE,
/// defaulting to the --json stream), an optional span profile
/// (--profile / $XBARLIFE_PROFILE), and a metrics registry that is always
/// collected and embedded into the result document.
class CliOutput {
 public:
  explicit CliOutput(const Args& args) {
    const std::string json_target = args.get("json", "-");
    if (args.flag("json")) {
      json_sink_ = make_sink(json_target);
    }
    std::string trace_target = args.get("trace", "-");
    if (!args.flag("trace")) {
      const char* env = std::getenv("XBARLIFE_TRACE");
      trace_target = (env != nullptr) ? env : "";
    }
    obs::Sink* trace_sink = nullptr;
    if (!trace_target.empty()) {
      if (args.flag("json") && trace_target == json_target) {
        trace_sink = json_sink_.get();
      } else {
        trace_sink_ = make_sink(trace_target);
        trace_sink = trace_sink_.get();
      }
    } else if (json_sink_ != nullptr) {
      // With --json but no explicit trace, events share the json stream so
      // a consumer sees progress events followed by the result document.
      trace_sink = json_sink_.get();
    }
    trace_ = std::make_unique<obs::EventTrace>(trace_sink);
    human_enabled_ = !(args.flag("json") && json_target == "-");

    std::string profile_target = args.get("profile", "-");
    if (!args.flag("profile")) {
      const char* env = std::getenv("XBARLIFE_PROFILE");
      profile_target = (env != nullptr) ? env : "";
    }
    if (!profile_target.empty()) {
      // Opened up front so an unwritable path fails fast (IoError,
      // exit 3) instead of after a long run.
      profile_sink_ = make_sink(profile_target);
      profiler_ = std::make_unique<obs::Profiler>();
      // Command-level root span: everything (and every dropped-in
      // domain counter) nests under it.
      root_span_ = profiler_->begin_span("cmd." + args.command);
    }

    if (args.flag("status-file")) {
      const std::string status_path = args.get("status-file", "");
      if (status_path.empty()) {
        throw xbarlife::InvalidArgument("--status-file needs a file path");
      }
      progress_ = std::make_unique<obs::ProgressReporter>(status_path,
                                                          args.command);
      progress_->attach_counters(&registry_);
    }
  }

  ~CliOutput() {
    // On the error paths emit() never runs; the status file must still
    // end on a finished snapshot so watchers see the run stop. Swallow
    // write failures — this is a destructor on an already-failing path.
    if (progress_ != nullptr) {
      try {
        progress_->finish();
      } catch (const xbarlife::Error&) {
      }
    }
  }

  obs::Obs obs() {
    return obs::Obs{&registry_, trace_.get(), profiler_.get(),
                    progress_.get()};
  }

  /// Human-readable stream: stdout normally, silenced (null) when the
  /// JSON document owns stdout.
  std::ostream& human() { return human_enabled_ ? std::cout : null_; }

  bool json_enabled() const { return json_sink_ != nullptr; }

  /// The run commands' validated --checkpoint path ("" without the flag).
  const std::string& checkpoint(const Args& args) {
    if (args.flag("checkpoint")) {
      checkpoint_ = args.get("checkpoint", "");
      if (checkpoint_.empty()) {
        throw xbarlife::InvalidArgument("--checkpoint needs a file path");
      }
    }
    return checkpoint_;
  }

  /// A store on --checkpoint for the single-loop commands (train,
  /// lifetime); null without the flag.
  persist::CheckpointStore* checkpoint_store(const Args& args) {
    if (checkpoint(args).empty()) {
      return nullptr;
    }
    return &store_.emplace(checkpoint_);
  }

  /// The human "checkpoint: PATH (generation N)" line, `detail`
  /// appended; nothing without --checkpoint.
  void report_checkpoint(std::uint64_t generation,
                         std::string_view detail = {}) {
    if (!checkpoint_.empty()) {
      human() << "checkpoint: " << checkpoint_ << " (generation "
              << generation << ")" << detail << "\n";
    }
  }

  /// Emits the versioned result document as the stream's final line. With
  /// --checkpoint (or `deterministic`), the document omits the metrics
  /// snapshot and the profile key: it must be byte-identical between
  /// fresh and checkpoint-resumed runs, whose counters (and span counts)
  /// necessarily differ. A checkpointed document gains a deterministic
  /// "resume":{"checkpoint","kind"} data key; the generation and the
  /// restored-job counts differ by kill point, so they go to the human
  /// report and the meta trace lines instead.
  void finish(const std::string& command, obs::JsonValue data,
              bool deterministic = false) {
    if (!checkpoint_.empty()) {
      obs::JsonValue resume = obs::JsonValue::object();
      resume.set("checkpoint", persist::kCheckpointSchema);
      resume.set("kind", command);
      data.set("resume", std::move(resume));
      deterministic = true;
    }
    emit(command, std::move(data), deterministic ? nullptr : &registry_,
         /*include_profile=*/!deterministic);
  }

  /// Emits a pre-built document (e.g. xbarlife.workerstats.v1) as the
  /// stream's final line instead of a result.v1 envelope.
  void finish_document(const std::string& command,
                       const obs::JsonValue& doc) {
    finish_progress();
    close_profile(command);
    if (json_sink_ != nullptr) {
      json_sink_->write(doc.dump());
      json_sink_->flush();
    }
    if (trace_sink_ != nullptr) {
      trace_sink_->flush();
    }
  }

 private:
  void emit(const std::string& command, obs::JsonValue data,
            const obs::Registry* metrics, bool include_profile) {
    finish_progress();
    close_profile(command);
    if (json_sink_ != nullptr) {
      json_sink_->write(
          core::result_document(command, std::move(data), metrics,
                                include_profile ? profiler_.get()
                                                : nullptr)
              .dump());
      json_sink_->flush();
    }
    if (trace_sink_ != nullptr) {
      trace_sink_->flush();
    }
  }

  /// Writes the final (finished:true) progress snapshot. Idempotent;
  /// no-op when --status-file is off.
  void finish_progress() {
    if (progress_ != nullptr) {
      progress_->finish();
    }
  }

  /// Ends the root span, prints the per-phase table, and writes the
  /// Perfetto trace file. Idempotent; no-op when profiling is off.
  void close_profile(const std::string& command) {
    if (profiler_ == nullptr) {
      return;
    }
    if (root_span_ != obs::kNoSpan) {
      profiler_->end_span(root_span_);
      root_span_ = obs::kNoSpan;
    }
    if (profile_sink_ != nullptr) {
      human() << "\nprofile (per-phase rollup):\n"
              << core::profile_table(*profiler_);
      profile_sink_->write(
          obs::perfetto_trace_json(*profiler_, "xbarlife " + command)
              .dump());
      profile_sink_->flush();
      profile_sink_.reset();
    }
  }

  static std::unique_ptr<obs::Sink> make_sink(const std::string& target) {
    if (target == "-") {
      return std::make_unique<obs::StreamSink>(std::cout);
    }
    return std::make_unique<obs::JsonlFileSink>(target);
  }

  /// A swallow-everything stream (badbit set, writes are no-ops).
  struct NullStream : std::ostream {
    NullStream() : std::ostream(nullptr) {}
  };

  obs::Registry registry_;
  std::unique_ptr<obs::Sink> json_sink_;
  std::unique_ptr<obs::Sink> trace_sink_;
  std::unique_ptr<obs::EventTrace> trace_;
  std::unique_ptr<obs::Sink> profile_sink_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::ProgressReporter> progress_;
  std::size_t root_span_ = obs::kNoSpan;
  std::string checkpoint_;
  std::optional<persist::CheckpointStore> store_;
  NullStream null_;
  bool human_enabled_ = true;
};

core::ExperimentConfig config_for(const Args& args) {
  core::ExperimentConfig cfg =
      core::make_model_config(args.get("model", "lenet5"));
  cfg.lifetime.max_sessions =
      args.number("sessions", cfg.lifetime.max_sessions);
  cfg.seed = args.number("seed", cfg.seed);
  if (args.flag("quantized")) {
    cfg.lifetime.tuning.quantized_eval = true;
  }
  return cfg;
}

core::Scenario parse_scenario(const std::string& name) {
  if (name == "tt") {
    return core::Scenario::kTT;
  }
  if (name == "stt") {
    return core::Scenario::kSTT;
  }
  if (name == "stat") {
    return core::Scenario::kSTAT;
  }
  throw xbarlife::InvalidArgument("unknown --scenario '" + name +
                                  "' (expected tt|stt|stat)");
}

core::Scenario scenario_for(const Args& args) {
  return parse_scenario(args.get("scenario", "stat"));
}

/// Applies the shared nonideality/resilience flags to `cfg` and validates
/// them (a bad value surfaces as InvalidArgument -> exit 2). The fault
/// seed defaults to the experiment seed so `lifetime` runs with the same
/// flags are reproducible without an extra option.
void apply_fault_flags(const Args& args, core::ExperimentConfig& cfg) {
  tuning::HardwareFaultConfig& f = cfg.faults;
  f.nonideal.stuck_off_fraction =
      args.number("stuck-off", f.nonideal.stuck_off_fraction);
  f.nonideal.stuck_on_fraction =
      args.number("stuck-on", f.nonideal.stuck_on_fraction);
  f.nonideal.write_noise_sigma =
      args.number("write-noise", f.nonideal.write_noise_sigma);
  f.nonideal.read_noise_sigma =
      args.number("read-noise", f.nonideal.read_noise_sigma);
  f.nonideal.line_resistance =
      args.number("line-resistance", f.nonideal.line_resistance);
  f.spare_rows = args.number("spare-rows", f.spare_rows);
  f.fault_seed = args.number("fault-seed", cfg.seed);
  if (args.flag("no-ladder")) {
    cfg.lifetime.resilience.ladder_enabled = false;
  }
  cfg.lifetime.resilience.degraded_accuracy_floor = args.number(
      "accuracy-floor", cfg.lifetime.resilience.degraded_accuracy_floor);
  f.validate();
  cfg.lifetime.resilience.validate();
}

/// Splits a comma-separated flag value; every token must be non-empty.
std::vector<std::string> split_list(const std::string& value,
                                    const std::string& flag) {
  std::vector<std::string> out;
  std::string current;
  for (const char ch : value) {
    if (ch == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  out.push_back(current);
  for (const std::string& token : out) {
    if (token.empty()) {
      throw xbarlife::InvalidArgument("--" + flag +
                                      " has an empty list element");
    }
  }
  return out;
}

/// Validated --job-timeout value in milliseconds (0 = no watchdog).
double job_timeout_for(const Args& args) {
  if (!args.flag("job-timeout")) {
    return 0.0;
  }
  const double ms = args.number("job-timeout", 0.0);
  if (ms <= 0.0) {
    throw xbarlife::InvalidArgument("--job-timeout must be positive");
  }
  return ms;
}

/// Validated --chunk value (jobs per snapshot).
std::size_t checkpoint_chunk_for(const Args& args) {
  const std::size_t chunk =
      args.number<std::size_t>("chunk", core::kDefaultSweepChunk);
  if (chunk == 0) {
    throw xbarlife::InvalidArgument("--chunk must be positive");
  }
  return chunk;
}

int cmd_train(const Args& args, CliOutput& out) {
  core::ExperimentConfig cfg = config_for(args);
  const bool skewed = args.flag("skewed");
  persist::CheckpointStore* store = out.checkpoint_store(args);
  out.human() << "Training " << cfg.name
              << (skewed ? " with the skewed regularizer" : " with L2")
              << "...\n";

  core::TrainedModel tm =
      core::train_model(cfg, data::make_synthetic(cfg.dataset), skewed,
                        out.obs(), store);
  out.report_checkpoint(store != nullptr ? store->generation() : 0);
  out.human() << tm.network.summary()
              << core::train_history_table(tm.history);

  obs::JsonValue data = obs::JsonValue::object();
  data.set("config", core::experiment_config_json(cfg));
  data.set("skewed", skewed);
  data.set("training", core::train_history_json(tm.history));
  if (args.flag("out")) {
    const std::string path = args.get("out", "weights.bin");
    nn::save_parameters(tm.network, path);
    out.human() << "Parameters written to " << path << "\n";
    data.set("weights_out", path);
  }
  out.finish("train", std::move(data));
  return 0;
}

int cmd_lifetime(const Args& args, CliOutput& out) {
  core::ExperimentConfig cfg = config_for(args);
  apply_fault_flags(args, cfg);
  const core::Scenario scenario = scenario_for(args);
  out.human() << "Scenario " << core::to_string(scenario) << " on "
              << cfg.name << " (this trains the network first)...\n";
  if (cfg.faults.active()) {
    out.human() << "hardware faults: stuck-off "
                << format_double(cfg.faults.nonideal.stuck_off_fraction, 3)
                << ", stuck-on "
                << format_double(cfg.faults.nonideal.stuck_on_fraction, 3)
                << ", write noise "
                << format_double(cfg.faults.nonideal.write_noise_sigma, 3)
                << ", read noise "
                << format_double(cfg.faults.nonideal.read_noise_sigma, 3)
                << ", spare rows " << cfg.faults.spare_rows << "\n";
  }
  persist::CheckpointStore* store = out.checkpoint_store(args);
  // Outside a sweep fan-out there is no per-job isolation: an expired
  // deadline propagates as TimeoutError (exit 8).
  std::optional<xbarlife::JobDeadline> deadline;
  const double timeout_ms = job_timeout_for(args);
  if (timeout_ms > 0.0) {
    deadline.emplace(timeout_ms,
                     std::string("lifetime ") + core::to_string(scenario));
  }
  const core::ScenarioOutcome o =
      core::run_scenario(cfg, scenario, out.obs(), store);
  out.human() << "software accuracy: "
              << format_double(o.software_accuracy, 3)
              << ", tuning target: " << format_double(o.tuning_target, 3)
              << "\n"
              << core::lifetime_session_table(o.lifetime, 20)
              << "lifetime: " << o.lifetime.lifetime_applications
              << " applications over " << o.lifetime.sessions.size()
              << " sessions ("
              << (o.lifetime.died ? "died" : "survived the cap") << ")\n";
  out.report_checkpoint(store != nullptr ? store->generation() : 0);

  obs::JsonValue data = obs::JsonValue::object();
  data.set("config", core::experiment_config_json(cfg));
  data.set("quantized", cfg.lifetime.tuning.quantized_eval);
  data.set("outcome", core::scenario_outcome_json(o));
  out.finish("lifetime", std::move(data));
  if (args.flag("strict") && o.lifetime.died) {
    throw xbarlife::ConvergenceError(
        "lifetime run died after " +
        std::to_string(o.lifetime.sessions.size()) + " sessions (" +
        std::to_string(o.lifetime.lifetime_applications) +
        " applications) with --strict");
  }
  return 0;
}

/// The checkpoint line of a grid command, with the restored/executed
/// split on a resumed run.
void report_grid_checkpoint(CliOutput& out,
                            const core::SweepOutcome& outcome) {
  std::string detail;
  if (outcome.resumed) {
    detail = ", " + std::to_string(outcome.resumed_jobs) +
             " job(s) restored, " + std::to_string(outcome.executed_jobs) +
             " executed" +
             (outcome.fallback_used ? " (fallback generation)" : "");
  }
  out.report_checkpoint(outcome.checkpoint_generation, detail);
}

/// Shared --strict gate for grid commands: any failed job (a timed-out
/// job is failed with timed_out set) turns into a ConvergenceError naming
/// the timeout count when one contributed.
void enforce_strict(const Args& args, std::ostream& human,
                    std::string_view what, const core::SweepOutcome& outcome) {
  if (outcome.failed_jobs == 0) {
    return;
  }
  std::string detail = std::to_string(outcome.failed_jobs) + " of " +
                       std::to_string(outcome.jobs.size()) + " " +
                       std::string(what) + " jobs failed";
  if (outcome.timed_out_jobs > 0) {
    detail += " (" + std::to_string(outcome.timed_out_jobs) + " timed out)";
  }
  human << detail << "\n";
  if (args.flag("strict")) {
    throw xbarlife::ConvergenceError(detail + " with --strict");
  }
}

int cmd_sweep(const Args& args, CliOutput& out) {
  core::ExperimentConfig cfg = config_for(args);
  const std::size_t replicates = args.number<std::size_t>("replicates", 2);
  core::ScenarioRunner runner(args.number<std::uint64_t>("seed", 7));
  runner.set_job_timeout_ms(job_timeout_for(args));
  const auto jobs = core::ScenarioRunner::cross(
      cfg,
      {core::Scenario::kTT, core::Scenario::kSTT, core::Scenario::kSTAT},
      replicates);
  out.human() << "Sweeping " << jobs.size() << " scenario runs on "
              << cfg.name << " across " << parallel_threads()
              << " thread(s)...\n";

  core::SweepConfig sweep_config;
  sweep_config.checkpoint_path = out.checkpoint(args);
  sweep_config.chunk = checkpoint_chunk_for(args);
  const bool resumable = !sweep_config.checkpoint_path.empty();
  const core::SweepOutcome outcome = core::run_sweep(
      runner, jobs, sweep_config,
      [resumable](std::size_t, const core::ScenarioSweepEntry& entry) {
        return core::sweep_entry_json(entry, !resumable).dump();
      },
      out.obs());
  out.human() << core::sweep_table(outcome);
  report_grid_checkpoint(out, outcome);

  obs::JsonValue sweep = obs::JsonValue::object();
  sweep.set("job_count", outcome.jobs.size());
  sweep.set("jobs", core::entries_json(outcome));
  obs::JsonValue data = obs::JsonValue::object();
  data.set("config", core::experiment_config_json(cfg));
  data.set("quantized", cfg.lifetime.tuning.quantized_eval);
  data.set("sweep_seed", runner.sweep_seed());
  data.set("replicates", replicates);
  data.set("sweep", std::move(sweep));
  out.finish("sweep", std::move(data));
  enforce_strict(args, out.human(), "sweep", outcome);
  return 0;
}

int cmd_faults(const Args& args, CliOutput& out) {
  core::FaultCampaignConfig campaign;
  campaign.base = config_for(args);
  campaign.scenarios.clear();
  for (const std::string& name :
       split_list(args.get("scenario", "stat"), "scenario")) {
    campaign.scenarios.push_back(parse_scenario(name));
  }
  campaign.replicates = args.number<std::size_t>("replicates", 1);
  campaign.campaign_seed = args.number<std::uint64_t>("seed", 7);
  campaign.checkpoint_path = out.checkpoint(args);
  campaign.checkpoint_chunk = checkpoint_chunk_for(args);
  campaign.job_timeout_ms = job_timeout_for(args);

  // The grid is the cross product of the comma-separated fault lists;
  // scalar flags (line resistance, spare rows, ladder knobs) apply to
  // every point. Labels reuse the flag tokens verbatim so points are easy
  // to correlate with the command line.
  const auto offs = split_list(args.get("stuck-off", "0,0.02"), "stuck-off");
  const auto ons = split_list(args.get("stuck-on", "0"), "stuck-on");
  const auto wns =
      split_list(args.get("write-noise", "0"), "write-noise");
  const auto rns = split_list(args.get("read-noise", "0"), "read-noise");
  const double line_r = args.number("line-resistance", 0.0);
  const std::size_t spare_rows = args.number<std::size_t>("spare-rows", 0);
  resilience::ResilienceConfig policy;
  if (args.flag("no-ladder")) {
    policy.ladder_enabled = false;
  }
  policy.degraded_accuracy_floor =
      args.number("accuracy-floor", policy.degraded_accuracy_floor);
  for (const std::string& off : offs) {
    for (const std::string& on : ons) {
      for (const std::string& wn : wns) {
        for (const std::string& rn : rns) {
          core::FaultPoint point;
          point.label =
              "off" + off + "_on" + on + "_wn" + wn + "_rn" + rn;
          point.faults.nonideal.stuck_off_fraction =
              parse_real(off, "--stuck-off");
          point.faults.nonideal.stuck_on_fraction =
              parse_real(on, "--stuck-on");
          point.faults.nonideal.write_noise_sigma =
              parse_real(wn, "--write-noise");
          point.faults.nonideal.read_noise_sigma =
              parse_real(rn, "--read-noise");
          point.faults.nonideal.line_resistance = line_r;
          point.faults.spare_rows = spare_rows;
          point.resilience = policy;
          campaign.points.push_back(point);
          if (args.flag("compare-ladder")) {
            point.label += "_noladder";
            point.resilience.ladder_enabled = false;
            campaign.points.push_back(std::move(point));
          }
        }
      }
    }
  }
  campaign.validate();

  const std::size_t job_count = campaign.points.size() *
                                campaign.scenarios.size() *
                                campaign.replicates;
  out.human() << "Fault campaign: " << campaign.points.size()
              << " fault point(s) x " << campaign.replicates
              << " replicate(s) on " << campaign.base.name << " ("
              << job_count << " jobs, " << parallel_threads()
              << " thread(s))...\n";
  const core::SweepOutcome result =
      core::run_fault_campaign(campaign, out.obs());
  out.human() << core::sweep_table(result);
  report_grid_checkpoint(out, result);

  obs::JsonValue data = obs::JsonValue::object();
  data.set("config", core::experiment_config_json(campaign.base));
  data.set("campaign", core::fault_campaign_json(result));
  out.finish("faults", std::move(data), /*deterministic=*/true);
  enforce_strict(args, out.human(), "campaign", result);
  return 0;
}

/// Queries every endpoint of --remote / $XBARLIFE_REMOTE (a plain
/// address is a list of one) for an xbarlife.workerstats.v1 snapshot:
/// one table row and one document (with an "endpoint" key) per endpoint,
/// in list order. With neither set a throwaway in-process loopback worker
/// answers, which doubles as an end-to-end protocol self-test. An
/// unreachable endpoint fails the whole command — status must never
/// silently shrink a fleet.
int cmd_worker_status(const Args& args, CliOutput& out) {
  xbar::RemoteConfig rcfg;
  if (const char* env = std::getenv("XBARLIFE_REMOTE")) {
    if (env[0] != '\0') {
      rcfg.address = env;
    }
  }
  if (args.flag("remote")) {
    rcfg.address = args.get("remote", "loopback");
  }

  TablePrinter table({"endpoint", "build", "uptime (ms)", "requests",
                      "replays", "errors", "connections"});
  std::vector<obs::JsonValue> docs;
  for (const std::string& endpoint : xbar::split_endpoints(rcfg.address)) {
    xbar::RemoteConfig ecfg = rcfg;
    ecfg.address = endpoint;
    const xbar::WorkerStatsSnapshot snap = xbar::query_worker_status(ecfg);
    table.add_row({endpoint, snap.build, std::to_string(snap.uptime_ms),
                   std::to_string(snap.requests_served),
                   std::to_string(snap.replay_hits),
                   std::to_string(snap.errors),
                   std::to_string(snap.active_connections) + "/" +
                       std::to_string(snap.connections_total)});
    docs.push_back(snap.to_json(endpoint));
  }
  out.human() << table.render();
  for (obs::JsonValue& doc : docs) {
    out.finish_document("worker-status", std::move(doc));
  }
  return 0;
}

int cmd_device(const Args& args, CliOutput& out) {
  device::DeviceParams dev;
  aging::AgingParams ap;
  ap.thermal_crosstalk = 0.0;
  aging::AgingModel model(ap);
  device::Memristor m(&dev, &model);
  const std::size_t pulses = args.number<std::size_t>("pulses", 100);
  const double target = args.number("target-r", 30000.0);
  for (std::size_t i = 0; i < pulses; ++i) {
    m.program(target);
  }
  TablePrinter table({"metric", "value"});
  table.add_row({"pulses", std::to_string(m.pulse_count())});
  table.add_row({"stress (us)", format_double(m.stress() * 1e6, 4)});
  table.add_row({"aged R_max (kOhm)",
                 format_double(m.aged_window().r_max / 1e3, 2)});
  table.add_row({"aged R_min (kOhm)",
                 format_double(m.aged_window().r_min / 1e3, 2)});
  table.add_row({"usable levels",
                 std::to_string(m.usable_levels()) + " / " +
                     std::to_string(dev.levels)});
  out.human() << table.render();

  obs::JsonValue data = obs::JsonValue::object();
  data.set("target_r", target);
  data.set("pulses", m.pulse_count());
  data.set("stress_us", m.stress() * 1e6);
  data.set("aged_r_max", m.aged_window().r_max);
  data.set("aged_r_min", m.aged_window().r_min);
  data.set("usable_levels", m.usable_levels());
  data.set("levels", dev.levels);
  out.finish("device", std::move(data));
  return 0;
}

int cmd_models(CliOutput& out) {
  TablePrinter table({"model", "description"});
  obs::JsonValue models = obs::JsonValue::array();
  for (const std::string& name : core::model_names()) {
    table.add_row({name, core::describe_model(name)});
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("name", name);
    entry.set("description", core::describe_model(name));
    models.push_back(std::move(entry));
  }
  out.human() << table.render();
  obs::JsonValue data = obs::JsonValue::object();
  data.set("models", std::move(models));
  out.finish("models", std::move(data));
  return 0;
}

int cmd_info() {
  std::string models;
  for (const std::string& name : core::model_names()) {
    if (!models.empty()) {
      models += "|";
    }
    models += name;
  }
  std::cout
      << "xbarlife — aging-aware lifetime enhancement for memristor\n"
         "crossbars (reproduction of Zhang et al., DATE 2019).\n\n"
         "commands:\n"
         "  train     --model " +
             models +
             " [--skewed] [--seed N]\n"
             "            [--out FILE]   train and optionally save weights\n"
             "  lifetime  --model ... --scenario tt|stt|stat [--sessions N]\n"
             "            [--quantized] [--strict]  run one lifetime scenario\n"
             "            (--quantized runs the tuning and range-selection\n"
             "            accuracy checks on int8 weights and activations;\n"
             "            --strict exits 4 if the array dies before the\n"
             "            session cap)\n"
             "  sweep     --model ... [--replicates N] [--sessions N]\n"
             "            [--quantized] [--strict] run all scenarios x replicates\n"
             "            (parallel fan-out; per-job errors are isolated,\n"
             "            --strict exits 4 if any job failed or timed out)\n"
             "  faults    --model ... [--scenario LIST] [--replicates N]\n"
             "            [--compare-ladder] [--strict]\n"
             "            deterministic fault-injection campaign over the\n"
             "            cross product of the fault lists\n"
             "  device    [--pulses N] [--target-r OHMS]\n"
             "            age a single device and report its window\n"
             "  worker-status [--remote ADDR]\n"
             "            query a serving worker for one live\n"
             "            xbarlife.workerstats.v1 snapshot (uptime,\n"
             "            requests, replay hits, latency histograms);\n"
             "            --json emits the document\n"
             "  models    list registered models\n"
             "  info      this text\n\n"
             "fault options (lifetime: scalars; faults: comma lists for\n"
             "the stuck/noise flags):\n"
             "  --stuck-off F   manufacture-time stuck-at-R_max fraction\n"
             "  --stuck-on F    manufacture-time stuck-at-R_min fraction\n"
             "  --write-noise S lognormal sigma on every programming pulse\n"
             "  --read-noise S  lognormal sigma on every conductance read\n"
             "  --line-resistance R  per-cell wire resistance (IR drop)\n"
             "  --spare-rows N  redundant rows per crossbar for remapping\n"
             "  --fault-seed N  fault-map seed (default: experiment seed)\n"
             "  --no-ladder     disable the resilience escalation ladder\n"
             "  --accuracy-floor F  degraded-mode acceptance floor\n\n"
             "global options:\n"
             "  --threads N     worker threads (0 = all cores; default 1 or\n"
             "                  $XBARLIFE_THREADS); results are identical at\n"
             "                  any thread count\n"
             "  --kernel V      compute-kernel variant: auto|scalar|avx2\n"
             "                  (default auto or $XBARLIFE_KERNEL); results\n"
             "                  are bit-identical per variant at any thread\n"
             "                  count, goldens pin scalar\n"
             "  --executor V    crossbar programming backend: auto|sim|\n"
             "                  remote (default auto/sim or\n"
             "                  $XBARLIFE_EXECUTOR); sim executes batched\n"
             "                  ProgramSequences, remote ships sequences\n"
             "                  to a worker over xbarlife.wire.v1 with\n"
             "                  retry/backoff and graceful fallback to sim\n"
             "  --remote ADDR   remote-executor endpoint: loopback (default,\n"
             "                  in-process worker thread), unix:/path, or\n"
             "                  host:port (see xbarlife-worker); also\n"
             "                  $XBARLIFE_REMOTE. A comma-separated list\n"
             "                  builds a failover worker pool (rendezvous-\n"
             "                  hashed owners, per-endpoint circuit\n"
             "                  breakers; sim fallback only when the whole\n"
             "                  pool is down)\n"
             "  --remote-faults SPEC  seeded transport fault injection, e.g.\n"
             "                  seed=7,drop=0.1,corrupt=0.05,dup=0.02,\n"
             "                  disconnect=0.01,delay_ms=1; also\n"
             "                  $XBARLIFE_REMOTE_FAULTS; ';'-separated\n"
             "                  per-endpoint specs against a pool\n"
             "  --json PATH|-   write the machine-readable result document\n"
             "                  (JSONL, schema xbarlife.result.v1); '-' is\n"
             "                  stdout and silences the human report\n"
             "  --trace PATH|-  stream JSONL events (or $XBARLIFE_TRACE);\n"
             "                  defaults to the --json stream\n"
             "  --profile PATH|- record a span profile (or\n"
             "                  $XBARLIFE_PROFILE): writes a Perfetto/Chrome\n"
             "                  trace_event JSON (open in ui.perfetto.dev),\n"
             "                  adds the 'profile' key to the result document\n"
             "                  and prints the per-phase rollup table\n"
             "  --checkpoint PATH  (train/lifetime/sweep/faults) crash-safe\n"
             "                  xbarlife.ckpt.v1 snapshots with automatic\n"
             "                  resume; arms SIGINT/SIGTERM for a graceful\n"
             "                  shutdown (final snapshot, exit 6)\n"
             "  --chunk N       (sweep/faults) jobs per snapshot (default\n"
             "                  16); a killed run loses at most one chunk\n"
             "  --job-timeout MS (lifetime/sweep/faults) per-job watchdog;\n"
             "                  sweep/campaign jobs over budget fail with\n"
             "                  timed_out:true; lifetime expiry exits 8\n"
             "  --status-file PATH  (train/lifetime/sweep/faults) live\n"
             "                  xbarlife.progress.v1 heartbeats: phase,\n"
             "                  done/total, ETA, counter rollup, rewritten\n"
             "                  atomically at a bounded cadence\n\n"
             "exit codes: 0 ok, 2 bad arguments, 3 I/O failure,\n"
             "4 failed convergence (--strict), 5 internal error,\n"
             "6 interrupted (snapshot written, resumable), 7 checkpoint\n"
             "corrupt with no valid fallback, 8 watchdog timeout\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.flag("threads")) {
      set_parallel_threads(args.number<std::size_t>("threads", 1));
    }
    if (args.flag("kernel")) {
      kernels::set_kernel(args.get("kernel", "auto"));
    } else {
      // Resolve $XBARLIFE_KERNEL up front so a bad value fails every
      // command with exit 2 instead of surfacing mid-computation.
      kernels::select();
    }
    if (args.flag("remote") || args.flag("remote-faults")) {
      // Explicit remote-link configuration replaces the default lazily
      // built remote backend (env still seeds the fields the flags omit).
      xbar::RemoteConfig rcfg = xbar::remote_config_from_env();
      if (args.flag("remote")) {
        rcfg.address = args.get("remote", "loopback");
      }
      if (args.flag("remote-faults")) {
        rcfg.fault_spec = args.get("remote-faults", "");
      }
      xbar::configure_remote_executor(rcfg);
    }
    if (args.flag("executor")) {
      xbar::set_executor(args.get("executor", "auto"));
    } else {
      // Same up-front resolution for $XBARLIFE_EXECUTOR (exit 2 on a
      // bad value, with the usable backends listed).
      xbar::select_executor();
    }
    if (args.flag("checkpoint")) {
      // Checkpointed runs die gracefully: the first SIGINT/SIGTERM
      // requests a cooperative shutdown honored at the next snapshot
      // boundary (exit 6); a second signal kills the process as usual.
      install_signal_handlers();
    }
    if (args.command.empty() || args.command == "info" ||
        args.command == "--help" || args.command == "-h") {
      return cmd_info();
    }
    CliOutput out(args);
    if (args.command == "train") {
      return cmd_train(args, out);
    }
    if (args.command == "lifetime") {
      return cmd_lifetime(args, out);
    }
    if (args.command == "sweep") {
      return cmd_sweep(args, out);
    }
    if (args.command == "faults") {
      return cmd_faults(args, out);
    }
    if (args.command == "device") {
      return cmd_device(args, out);
    }
    if (args.command == "worker-status") {
      return cmd_worker_status(args, out);
    }
    if (args.command == "models") {
      return cmd_models(out);
    }
    std::cerr << "unknown command '" << args.command
              << "' (try: xbarlife info)\n";
    return 2;
  } catch (const xbarlife::InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const xbarlife::InterruptedError& e) {
    std::cerr << "interrupted: " << e.what() << "\n";
    return 6;
  } catch (const xbarlife::CheckpointError& e) {
    // Must precede IoError: CheckpointError refines it with "corrupt and
    // no valid fallback generation", which gets its own exit code.
    std::cerr << "checkpoint error: " << e.what() << "\n";
    return 7;
  } catch (const xbarlife::IoError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const xbarlife::ConvergenceError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 4;
  } catch (const xbarlife::TimeoutError& e) {
    std::cerr << "timeout: " << e.what() << "\n";
    return 8;
  } catch (const xbarlife::Error& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 5;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
