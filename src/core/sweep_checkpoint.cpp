#include "core/sweep_checkpoint.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "obs/fork.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::core {

namespace {

/// The engine's snapshot target: a view over the job list and the
/// (partially filled) result vector. Only completed jobs — non-empty
/// entry_json — are serialized.
class SweepState : public persist::Checkpointable {
 public:
  SweepState(const CheckpointedSweepConfig& config,
             std::uint64_t sweep_seed,
             const std::vector<ScenarioJob>& jobs,
             std::vector<SweepJobResult>& results)
      : config_(&config),
        sweep_seed_(sweep_seed),
        jobs_(&jobs),
        results_(&results) {}

  std::string kind() const override { return config_->kind; }

  std::uint64_t fingerprint() const override {
    persist::Fingerprint fp;
    fp.add(std::string_view{"sweep-ckpt"});
    fp.add(config_->kind);
    fp.add(sweep_seed_);
    fp.add(config_->config_salt);
    fp.add(static_cast<std::uint64_t>(jobs_->size()));
    for (const ScenarioJob& job : *jobs_) {
      fp.add(job.label);
      fp.add(static_cast<std::uint64_t>(job.scenario));
      fp.add(job.stream);
    }
    return fp.value();
  }

  std::string serialize() const override {
    persist::StateWriter w;
    w.u64(results_->size());
    for (const SweepJobResult& job : *results_) {
      const bool done = !job.entry_json.empty();
      w.boolean(done);
      if (!done) {
        continue;
      }
      w.str(job.entry_json);
      w.u8(static_cast<std::uint8_t>(job.scenario));
      w.u64(job.stream);
      w.u64(job.seed);
      w.f64(job.software_accuracy);
      w.f64(job.tuning_target);
      w.u64(job.lifetime_applications);
      w.u64(job.sessions);
      w.boolean(job.died);
      w.boolean(job.failed);
      w.boolean(job.timed_out);
      w.str(job.error);
      w.u64(job.trace_lines.size());
      for (const std::string& line : job.trace_lines) {
        w.str(line);
      }
    }
    return w.data();
  }

  void restore(std::string_view payload) override {
    persist::StateReader r(payload);
    XB_CHECK(r.u64() == results_->size(),
             "sweep snapshot job count does not match this grid");
    for (SweepJobResult& job : *results_) {
      if (!r.boolean()) {
        continue;
      }
      job.entry_json = r.str();
      job.scenario = static_cast<Scenario>(r.u8());
      job.stream = r.u64();
      job.seed = r.u64();
      job.software_accuracy = r.f64();
      job.tuning_target = r.f64();
      job.lifetime_applications = r.u64();
      job.sessions = r.u64();
      job.died = r.boolean();
      job.failed = r.boolean();
      job.timed_out = r.boolean();
      job.error = r.str();
      job.trace_lines.resize(r.array_count(8));
      for (std::string& line : job.trace_lines) {
        line = r.str();
      }
      job.resumed = true;
    }
    XB_CHECK(r.done(), "sweep snapshot has trailing bytes");
  }

 private:
  const CheckpointedSweepConfig* config_;
  std::uint64_t sweep_seed_;
  const std::vector<ScenarioJob>* jobs_;
  std::vector<SweepJobResult>* results_;
};

}  // namespace

CheckpointedSweepOutcome run_checkpointed_sweep(
    const ScenarioRunner& runner, const std::vector<ScenarioJob>& jobs,
    const CheckpointedSweepConfig& config,
    const EntrySerializer& serialize_entry, const obs::Obs& obs) {
  XB_CHECK(!config.checkpoint_path.empty(),
           "checkpointed sweep needs a checkpoint path");
  XB_CHECK(static_cast<bool>(serialize_entry),
           "checkpointed sweep needs an entry serializer");

  CheckpointedSweepOutcome out;
  out.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.jobs[i].label = jobs[i].label;
  }

  SweepState state(config, runner.sweep_seed(), jobs, out.jobs);
  persist::CheckpointStore store(config.checkpoint_path);
  const auto info = store.load(state);
  if (info.has_value()) {
    out.resumed = true;
    out.fallback_used = info->fallback_used;
    for (const SweepJobResult& job : out.jobs) {
      out.resumed_jobs += job.resumed;
    }
    emit_resume_event(obs, config.kind, info->generation,
                      info->fallback_used);
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    if (out.jobs[i].entry_json.empty()) {
      pending.push_back(i);
    }
  }

  // Trace-only fork parent: child registries and profilers are never
  // merged here — a resumed run cannot reconstruct the killed process's
  // metrics, so checkpoint-mode documents omit them (the CLI renders
  // them via the deterministic finisher) and the engine doesn't pay for
  // collecting them.
  obs::Obs fork_parent;
  fork_parent.trace = obs.trace;
  std::vector<std::string> labels;
  labels.reserve(jobs.size());
  for (const ScenarioJob& job : jobs) {
    labels.push_back(job.label);
  }
  obs::ObsFork fork(fork_parent, std::move(labels));

  // Resumed jobs count as already done, so a resumed run's heartbeat
  // starts where the killed run left off.
  obs.progress_phase(config.kind + ".jobs",
                     out.jobs.size() - pending.size(), out.jobs.size());

  const std::size_t chunk = config.chunk > 0 ? config.chunk : 16;
  for (std::size_t start = 0; start < pending.size(); start += chunk) {
    const std::size_t end = std::min(pending.size(), start + chunk);
    const std::vector<std::size_t> batch(
        pending.begin() + static_cast<std::ptrdiff_t>(start),
        pending.begin() + static_cast<std::ptrdiff_t>(end));
    runner.run_each(jobs, batch, fork, [&](std::size_t idx,
                                           ScenarioSweepEntry entry) {
      SweepJobResult& job = out.jobs[idx];
      job.scenario = entry.scenario;
      job.stream = entry.stream;
      job.seed = entry.seed;
      job.software_accuracy = entry.outcome.software_accuracy;
      job.tuning_target = entry.outcome.tuning_target;
      job.lifetime_applications =
          entry.outcome.lifetime.lifetime_applications;
      job.sessions = entry.outcome.lifetime.sessions.size();
      job.died = entry.outcome.lifetime.died;
      job.failed = entry.failed;
      job.timed_out = entry.timed_out;
      job.error = entry.error;
      job.entry_json = serialize_entry(idx, entry);
      XB_ASSERT(!job.entry_json.empty(),
                "entry serializer returned nothing for " + job.label);
      obs.progress_tick();
    });
    for (std::size_t k = start; k < end; ++k) {
      out.jobs[pending[k]].trace_lines = fork.take_job_lines(pending[k]);
    }
    out.executed_jobs += end - start;
    store.save(state);
    emit_checkpoint_saved(obs, config.kind, store.generation());
    // Cooperative shutdown boundary: the chunk just finished is on disk,
    // so stopping here loses nothing — and every attempt makes at least
    // one chunk of progress even when the signal arrived mid-chunk.
    if (shutdown_requested() && end < pending.size()) {
      throw InterruptedError(
          config.kind + " run interrupted with " +
          std::to_string(pending.size() - end) +
          " job(s) pending; resume with the same checkpoint: " +
          store.path());
    }
  }
  out.checkpoint_generation = store.generation();

  // Deterministic fan-in, strictly in global job order: restored and
  // fresh jobs are indistinguishable here, so the merged stream never
  // depends on where the run was killed.
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    const SweepJobResult& job = out.jobs[i];
    out.failed_jobs += job.failed;
    out.timed_out_jobs += job.timed_out;
    obs.count("sweep.jobs");
    if (job.failed) {
      obs.count("sweep.failed_jobs");
    }
    if (obs.trace_enabled()) {
      for (const std::string& line : job.trace_lines) {
        obs.trace->emit_line(line);
      }
      std::vector<obs::Field> fields{
          {"job", job.label},
          {"index", i},
          {"scenario", to_string(job.scenario)},
          {"stream", job.stream},
          {"seed", job.seed},
          {"software_accuracy", job.software_accuracy},
          {"tuning_target", job.tuning_target},
          {"lifetime_applications", job.lifetime_applications},
          {"sessions", job.sessions},
          {"died", job.died}};
      if (job.timed_out) {
        fields.emplace_back("timed_out", true);
      }
      if (job.failed) {
        fields.emplace_back("error", job.error);
      }
      obs.event("sweep_job_done", fields);
    }
  }
  return out;
}

std::string checkpointed_sweep_table(const CheckpointedSweepOutcome& out) {
  TablePrinter table({"run", "source", "sw acc", "target", "lifetime apps",
                      "sessions", "outcome"});
  for (const SweepJobResult& job : out.jobs) {
    const std::string source = job.resumed ? "checkpoint" : "run";
    if (job.failed) {
      table.add_row({job.label, source, "-", "-", "-", "-",
                     (job.timed_out ? "timeout: " : "error: ") + job.error});
      continue;
    }
    table.add_row({job.label, source,
                   format_double(job.software_accuracy, 3),
                   format_double(job.tuning_target, 3),
                   std::to_string(job.lifetime_applications),
                   std::to_string(job.sessions),
                   job.died ? "died" : "survived cap"});
  }
  return table.render();
}

}  // namespace xbarlife::core
