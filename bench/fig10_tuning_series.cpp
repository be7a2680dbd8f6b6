// Fig. 10: online-tuning iterations vs number of processed applications
// for the three scenarios — the failure knee. The series come from one
// core::run_experiment, Table I's protocol: one tuning target for all
// three scenarios, one skewed training for ST+T and ST+AT, and ST+AT
// riding on ST+T up to its fork. The three lifetimes are
// table1_lifetime's LeNet-5 row, in quick mode too (both shrink through
// bench::shrink_for_quick).
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

using namespace xbarlife;

int main() {
  bench::print_header("Fig. 10 — tuning iterations vs applications",
                      "Fig. 10");

  // LeNet-5-scale run; the knee position scales with the aging constants
  // but the shape (flat, creep, explosion) is the result under test.
  core::ExperimentConfig cfg = core::lenet_experiment_config();
  if (bench::quick_mode()) {
    bench::shrink_for_quick(cfg);
  }

  CsvWriter csv(bench::results_path("fig10_tuning_series.csv"),
                {"scenario", "applications", "iterations", "accuracy",
                 "pulses_total"});
  TablePrinter summary({"scenario", "sessions", "knee (apps)",
                        "median iters (first half)", "max iters"});

  std::cout << "Simulating " << cfg.name << " (3 scenarios)...\n";
  const core::ExperimentResult result = core::run_experiment(cfg);
  for (core::Scenario s : {core::Scenario::kTT, core::Scenario::kSTT,
                           core::Scenario::kSTAT}) {
    const core::ScenarioOutcome& o = result.outcome(s);
    std::size_t max_iters = 0;
    std::vector<std::size_t> first_half;
    for (const core::SessionRecord& rec : o.lifetime.sessions) {
      csv.add_row(std::vector<std::string>{
          core::to_string(s), std::to_string(rec.applications),
          std::to_string(rec.tuning_iterations),
          format_double(rec.accuracy, 4),
          std::to_string(rec.pulses_total)});
      max_iters = std::max(max_iters, rec.tuning_iterations);
      if (rec.session < o.lifetime.sessions.size() / 2) {
        first_half.push_back(rec.tuning_iterations);
      }
    }
    std::sort(first_half.begin(), first_half.end());
    const std::size_t median =
        first_half.empty() ? 0 : first_half[first_half.size() / 2];
    summary.add_row(
        {core::to_string(s), std::to_string(o.lifetime.sessions.size()),
         std::to_string(o.lifetime.lifetime_applications),
         std::to_string(median), std::to_string(max_iters)});

    // Compact console sparkline of the series.
    std::cout << "  " << core::to_string(s) << " iterations: ";
    const auto& sessions = o.lifetime.sessions;
    const std::size_t stride = std::max<std::size_t>(1, sessions.size() / 40);
    for (std::size_t i = 0; i < sessions.size(); i += stride) {
      const std::size_t it = sessions[i].tuning_iterations;
      const char* glyph = it == 0   ? "_"
                          : it < 3  ? "."
                          : it < 10 ? ":"
                          : it < 40 ? "|"
                                    : "#";
      std::cout << glyph;
    }
    std::cout << "  (" << sessions.size() << " sessions, "
              << (o.lifetime.died ? "died" : "survived cap") << ")\n";
  }

  std::cout << "\n" << summary.render();
  std::cout << "Paper reference: iterations stay low, then increase\n"
               "suddenly at scenario-dependent thresholds; ST+AT's knee\n"
               "arrives last.\n";
  std::cout << "CSV written to results/fig10_tuning_series.csv\n";
  return 0;
}
