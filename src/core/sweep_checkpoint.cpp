#include "core/sweep_checkpoint.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/fork.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::core {

SweepState::SweepState(const ScenarioRunner& runner,
                       const std::vector<ScenarioJob>& jobs,
                       std::string kind, std::vector<SweepJobResult>& rows)
    : runner_(&runner), jobs_(&jobs), kind_(std::move(kind)), rows_(&rows) {}

std::uint64_t SweepState::fingerprint() const {
  persist::Fingerprint fp;
  fp.add(std::string_view{"sweep-ckpt"});
  fp.add(kind_);
  fp.add(runner_->sweep_seed());
  fp.add(static_cast<std::uint64_t>(jobs_->size()));
  for (const ScenarioJob& job : *jobs_) {
    fp.add(job.label);
    fp.add(job.stream);
    fp.add(scenario_key(runner_->forked_config(job), job.scenario));
  }
  return fp.value();
}

void SweepState::save(persist::StateWriter& w) const {
  w.u64(rows_->size());
  for (const SweepJobResult& job : *rows_) {
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
}

void SweepState::load(persist::StateReader& r) {
  XB_CHECK(r.u64() == rows_->size(),
           "sweep snapshot job count does not match this grid");
  for (std::size_t i = 0; i < rows_->size(); ++i) {
    SweepJobResult& job = (*rows_)[i];
    if (!r.boolean()) {
      continue;
    }
    job.entry_json = r.str();
    // The fingerprint covers the job list, so each row's identity must be
    // its job's: a row that names another scenario, stream or seed is
    // corrupt, not a row to splice back.
    const ScenarioJob& spec = (*jobs_)[i];
    const std::uint8_t scenario = r.u8();
    job.stream = r.u64();
    job.seed = r.u64();
    if (scenario != static_cast<std::uint8_t>(spec.scenario) ||
        job.stream != spec.stream ||
        job.seed != runner_->forked_config(spec).seed) {
      throw CheckpointError("sweep snapshot row " + std::to_string(i) +
                            " does not match job " + spec.label);
    }
    job.scenario = spec.scenario;
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
}

SweepOutcome run_sweep(const ScenarioRunner& runner,
                       const std::vector<ScenarioJob>& jobs,
                       const SweepConfig& config,
                       const EntrySerializer& serialize_entry,
                       const obs::Obs& obs) {
  XB_CHECK(static_cast<bool>(serialize_entry),
           "sweep needs an entry serializer");
  const bool persistent = !config.checkpoint_path.empty();
  XB_CHECK(!persistent || config.chunk > 0,
           "checkpointed sweep needs a positive chunk size");

  SweepOutcome out;
  out.sweep_seed = runner.sweep_seed();
  out.jobs.resize(jobs.size());
  std::vector<std::string> labels;
  labels.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.jobs[i].label = jobs[i].label;
    labels.push_back(jobs[i].label);
  }

  SweepState state(runner, jobs, config.kind, out.jobs);
  std::optional<persist::CheckpointStore> store;
  if (persistent) {
    store.emplace(config.checkpoint_path);
  }
  CheckpointLoop loop(state, persistent ? &*store : nullptr, obs,
                      CheckpointLoop::Trace::kDirect);
  if (loop.restored().has_value()) {
    out.resumed = true;
    out.fallback_used = loop.restored()->fallback_used;
    for (const SweepJobResult& job : out.jobs) {
      out.resumed_jobs += job.resumed;
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    if (!out.jobs[i].resumed) {
      pending.push_back(i);
    }
  }

  // Jobs run concurrently, so each gets a forked child context. Without a
  // checkpoint the fork mirrors `obs` and merge_into() fans registries,
  // profiles and traces back in. With one, the fork is trace-only: a
  // resumed run cannot reconstruct the killed process's metrics, so
  // checkpoint-mode documents omit them (the CLI renders them via the
  // deterministic finisher) and the engine doesn't pay for collecting
  // them.
  obs::Obs fork_parent = obs;
  if (persistent) {
    fork_parent = obs::Obs{};
    fork_parent.trace = obs.trace;
  }
  obs::ObsFork fork(fork_parent, std::move(labels));

  // Resumed jobs count as already done, so a resumed run's heartbeat
  // starts where the killed run left off.
  obs.progress_phase(config.kind + ".jobs",
                     out.jobs.size() - pending.size(), out.jobs.size());

  // Rows are written by index, so the outcome is identical however the
  // pool schedules the jobs.
  const std::size_t chunk = persistent ? config.chunk : pending.size();
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
      job.wall_ms = entry.wall_ms;
      job.entry_json = serialize_entry(idx, std::move(entry));
      XB_ASSERT(!persistent || !job.entry_json.empty(),
                "entry serializer returned nothing for " + job.label);
      obs.progress_tick();
    });
    out.executed_jobs += end - start;
    if (!persistent) {
      continue;
    }
    for (std::size_t k = start; k < end; ++k) {
      out.jobs[pending[k]].trace_lines = fork.take_job_lines(pending[k]);
    }
    // A shutdown stops at the chunk boundary: the chunk is on disk, so
    // nothing is lost, and every attempt makes at least one chunk of
    // progress even when the signal arrived mid-chunk.
    loop.commit(end < pending.size(),
                config.kind + " run interrupted with " +
                    std::to_string(pending.size() - end) + " job(s) pending");
  }
  if (persistent) {
    out.checkpoint_generation = store->generation();
  }

  // Deterministic fan-in, strictly in global job order: restored and
  // fresh jobs are indistinguishable here, so the merged stream never
  // depends on where the run was killed. Without a checkpoint,
  // merge_into() has already spliced job i's trace, registry and profile
  // when this runs.
  const auto fan_in = [&](std::size_t i) {
    const SweepJobResult& job = out.jobs[i];
    out.failed_jobs += job.failed;
    out.timed_out_jobs += job.timed_out;
    if (!persistent && obs.metrics_enabled()) {
      obs.metrics->histogram("sweep.job_ms").observe(job.wall_ms);
    }
    obs.count("sweep.jobs");
    if (job.failed) {
      obs.count("sweep.failed_jobs");
    }
    if (!obs.trace_enabled()) {
      return;
    }
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
    if (!persistent) {
      fields.emplace_back("wall_ms", job.wall_ms);
    }
    if (job.timed_out) {
      fields.emplace_back("timed_out", true);
    }
    if (job.failed) {
      fields.emplace_back("error", job.error);
    }
    obs.event("sweep_job_done", fields);
  };
  if (persistent) {
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
      fan_in(i);
    }
  } else {
    fork.merge_into(fan_in);
  }
  return out;
}

obs::JsonValue entries_json(const SweepOutcome& out) {
  obs::JsonValue entries = obs::JsonValue::array();
  for (const SweepJobResult& job : out.jobs) {
    XB_ASSERT(!job.entry_json.empty(), "sweep job has no entry: " + job.label);
    entries.push_back(obs::JsonValue::raw(job.entry_json));
  }
  return entries;
}

std::string sweep_table(const SweepOutcome& out) {
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
