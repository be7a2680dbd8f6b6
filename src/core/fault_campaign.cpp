#include "core/fault_campaign.hpp"

#include <unordered_set>

#include "common/error.hpp"

namespace xbarlife::core {

void FaultCampaignConfig::validate() const {
  XB_CHECK(!points.empty(), "fault campaign needs at least one point");
  XB_CHECK(!scenarios.empty(), "fault campaign needs at least one scenario");
  XB_CHECK(replicates > 0, "fault campaign needs at least one replicate");
  std::unordered_set<std::string> labels;
  for (const FaultPoint& p : points) {
    XB_CHECK(!p.label.empty(), "fault point label must be non-empty");
    XB_CHECK(labels.insert(p.label).second,
             "duplicate fault point label: " + p.label);
    p.faults.validate();
    p.resilience.validate();
  }
}

obs::JsonValue campaign_entry_json(const ScenarioSweepEntry& entry,
                                   const std::string& point) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("label", entry.label);
  out.set("point", point);
  out.set("scenario", to_string(entry.scenario));
  out.set("stream", entry.stream);
  out.set("seed", entry.seed);
  out.set("data_seed", entry.data_seed);
  out.set("drift_seed", entry.drift_seed);
  out.set("fault_seed", entry.fault_seed);
  if (entry.failed) {
    out.set("failed", true);
    if (entry.timed_out) {
      out.set("timed_out", true);
    }
    out.set("error", entry.error);
    return out;
  }
  out.set("software_accuracy", entry.outcome.software_accuracy);
  out.set("tuning_target", entry.outcome.tuning_target);
  out.set("lifetime_applications",
          entry.outcome.lifetime.lifetime_applications);
  out.set("sessions", entry.outcome.lifetime.sessions.size());
  std::size_t rescued = 0;
  std::size_t degraded = 0;
  for (const SessionRecord& rec : entry.outcome.lifetime.sessions) {
    rescued += rec.rescued;
    degraded += rec.degraded;
  }
  out.set("rescued_sessions", rescued);
  out.set("degraded_sessions", degraded);
  out.set("died", entry.outcome.lifetime.died);
  return out;
}

std::vector<ScenarioJob> fault_campaign_jobs(
    const FaultCampaignConfig& config) {
  std::vector<ScenarioJob> jobs;
  jobs.reserve(config.points.size() * config.scenarios.size() *
               config.replicates);
  for (const FaultPoint& point : config.points) {
    for (std::size_t rep = 0; rep < config.replicates; ++rep) {
      for (const Scenario s : config.scenarios) {
        ScenarioJob job;
        job.label = point.label + "/" + std::string(to_string(s)) + "/r" +
                    std::to_string(rep);
        job.config = config.base;
        job.config.faults = point.faults;
        job.config.lifetime.resilience = point.resilience;
        job.scenario = s;
        // Replicate r shares stream r across every point and scenario, so
        // the grid's cells are directly comparable.
        job.stream = rep;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

SweepOutcome run_fault_campaign(const FaultCampaignConfig& config,
                                const obs::Obs& obs) {
  config.validate();
  const obs::Span campaign_span(obs, "faults.campaign");
  ScenarioRunner runner(config.campaign_seed);
  runner.set_job_timeout_ms(config.job_timeout_ms);
  SweepConfig sweep;
  sweep.checkpoint_path = config.checkpoint_path;
  sweep.kind = "faults";
  sweep.chunk = config.checkpoint_chunk;
  const std::size_t jobs_per_point =
      config.replicates * config.scenarios.size();
  SweepOutcome out = run_sweep(
      runner, fault_campaign_jobs(config), sweep,
      [&config, jobs_per_point](std::size_t i,
                                const ScenarioSweepEntry& entry) {
        return campaign_entry_json(entry,
                                   config.points[i / jobs_per_point].label)
            .dump();
      },
      obs);
  if (out.resumed_jobs > 0) {
    obs.count("faults.jobs_resumed", out.resumed_jobs);
  }
  obs.count("faults.jobs_executed", out.executed_jobs);
  if (obs.trace_enabled()) {
    // Deterministic fields only: executed/resumed depend on where a
    // previous run was killed, which would break the resume contract's
    // trace byte-identity.
    obs.event("campaign_done", {{"campaign_seed", out.sweep_seed},
                                {"jobs", out.jobs.size()},
                                {"failed", out.failed_jobs}});
  }
  return out;
}

obs::JsonValue fault_campaign_json(const SweepOutcome& result) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("campaign_seed", result.sweep_seed);
  out.set("job_count", result.jobs.size());
  out.set("results", entries_json(result));
  return out;
}

}  // namespace xbarlife::core
