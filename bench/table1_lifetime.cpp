// Table I: networks, datasets, software accuracy without/with skewed
// training, and lifetime (normalized to T+T) for T+T / ST+T / ST+AT.
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/model_registry.hpp"

using namespace xbarlife;

int main() {
  bench::print_header("Table I — lifetime comparison", "Table I");

  std::vector<core::ExperimentConfig> configs{
      core::make_model_config("lenet5"), core::make_model_config("vgg16")};
  if (bench::quick_mode()) {
    for (auto& cfg : configs) {
      bench::shrink_for_quick(cfg);
    }
  }

  TablePrinter table({"network", "dataset", "classes", "acc (T)",
                      "acc (ST)", "life T+T", "life ST+T", "life ST+AT",
                      "ratio ST+T", "ratio ST+AT"});
  CsvWriter csv(bench::results_path("table1_lifetime.csv"),
                {"network", "acc_traditional", "acc_skewed", "life_tt",
                 "life_stt", "life_stat", "ratio_stt", "ratio_stat"});

  for (const core::ExperimentConfig& cfg : configs) {
    std::cout << "\nRunning " << cfg.name
              << " (3 scenarios, training twice)...\n";
    const core::ExperimentResult result = core::run_experiment(cfg);
    const auto life = [&](core::Scenario s) {
      return result.outcome(s).lifetime.lifetime_applications;
    };
    table.add_row(
        {cfg.name.substr(0, cfg.name.find(" /")),
         cfg.name.substr(cfg.name.find("/ ") + 2),
         std::to_string(cfg.dataset.classes),
         format_double(result.accuracy_traditional, 3),
         format_double(result.accuracy_skewed, 3),
         std::to_string(life(core::Scenario::kTT)),
         std::to_string(life(core::Scenario::kSTT)),
         std::to_string(life(core::Scenario::kSTAT)),
         format_double(result.lifetime_ratio(core::Scenario::kSTT), 2) + "x",
         format_double(result.lifetime_ratio(core::Scenario::kSTAT), 2) +
             "x"});
    csv.add_row(std::vector<std::string>{
        cfg.name, format_double(result.accuracy_traditional, 4),
        format_double(result.accuracy_skewed, 4),
        std::to_string(life(core::Scenario::kTT)),
        std::to_string(life(core::Scenario::kSTT)),
        std::to_string(life(core::Scenario::kSTAT)),
        format_double(result.lifetime_ratio(core::Scenario::kSTT), 3),
        format_double(result.lifetime_ratio(core::Scenario::kSTAT), 3)});
  }

  std::cout << "\n" << table.render();
  std::cout << "Paper reference: lifetime ratios 1x : 6x : 8x (LeNet-5) and\n"
               "1x : 7x : 11x (VGG-16). The reproduction targets the same\n"
               "ordering with T+T << ST+T <= ST+AT; absolute factors depend\n"
               "on the (substituted) aging constants, see DESIGN.md.\n";
  std::cout << "CSV written to results/table1_lifetime.csv\n";
  return 0;
}
