// Fig. 11: aging of convolutional vs fully-connected layers — average
// aged upper resistance bounds over the lifetime.
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

using namespace xbarlife;

int main() {
  bench::print_header("Fig. 11 — conv vs fully-connected layer aging",
                      "Fig. 11");

  core::ExperimentConfig cfg = core::lenet_experiment_config();
  if (bench::quick_mode()) {
    bench::shrink_for_quick(cfg);
  }
  std::cout << "Simulating the ST+T lifetime of LeNet-5 and aggregating\n"
               "per-layer-type aged R_max...\n";
  const data::TrainTest data = data::make_synthetic(cfg.dataset);
  core::TrainedModel tm = core::train_model(cfg, data, /*skewed=*/true);

  core::LifetimeConfig lc = cfg.lifetime;
  lc.tuning.target_accuracy =
      cfg.target_accuracy_fraction * tm.history.final_test_accuracy;
  tuning::HardwareNetwork hw(tm.network, cfg.device, cfg.aging);
  core::LifetimeSimulator sim(lc);
  const core::LifetimeResult result = sim.run(
      hw, data.train, data.test, tuning::MappingPolicy::kFresh);

  // Which deployed layers are conv vs dense?
  std::vector<bool> is_conv;
  for (std::size_t i = 0; i < hw.layer_count(); ++i) {
    is_conv.push_back(hw.layer(i).kind == nn::LayerKind::kConv);
  }

  TablePrinter table({"applications", "avg R_max conv (kOhm)",
                      "avg R_max fc (kOhm)"});
  CsvWriter csv(bench::results_path("fig11_layer_aging.csv"),
                {"applications", "rmax_conv", "rmax_fc"});
  const std::size_t stride =
      std::max<std::size_t>(1, result.sessions.size() / 16);
  for (std::size_t i = 0; i < result.sessions.size(); i += stride) {
    const core::SessionRecord& rec = result.sessions[i];
    double conv_sum = 0.0;
    double fc_sum = 0.0;
    std::size_t conv_n = 0;
    std::size_t fc_n = 0;
    for (std::size_t l = 0; l < rec.layer_mean_aged_rmax.size(); ++l) {
      if (is_conv[l]) {
        conv_sum += rec.layer_mean_aged_rmax[l];
        ++conv_n;
      } else {
        fc_sum += rec.layer_mean_aged_rmax[l];
        ++fc_n;
      }
    }
    const double conv_avg = conv_sum / static_cast<double>(conv_n);
    const double fc_avg = fc_sum / static_cast<double>(fc_n);
    table.add_row({std::to_string(rec.applications),
                   format_double(conv_avg / 1e3, 2),
                   format_double(fc_avg / 1e3, 2)});
    csv.add_row(std::vector<double>{
        static_cast<double>(rec.applications), conv_avg, fc_avg});
  }
  std::cout << table.render();

  const auto& last = result.sessions.back();
  double conv_last = 0.0;
  double fc_last = 0.0;
  std::size_t conv_n = 0;
  std::size_t fc_n = 0;
  for (std::size_t l = 0; l < last.layer_mean_aged_rmax.size(); ++l) {
    (is_conv[l] ? conv_last : fc_last) += last.layer_mean_aged_rmax[l];
    (is_conv[l] ? conv_n : fc_n) += 1;
  }
  conv_last /= static_cast<double>(conv_n);
  fc_last /= static_cast<double>(fc_n);
  std::cout << "Final avg aged R_max — conv: "
            << format_double(conv_last / 1e3, 2)
            << " kOhm, fc: " << format_double(fc_last / 1e3, 2)
            << " kOhm\n";

  // The paper's stated mechanism is programming *frequency*: report the
  // per-cell pulse rate per layer type.
  double conv_ppc = 0.0;
  double fc_ppc = 0.0;
  double conv_cells = 0.0;
  double fc_cells = 0.0;
  const auto stats = hw.aging_stats();
  for (std::size_t l = 0; l < hw.layer_count(); ++l) {
    const auto cells = static_cast<double>(hw.layer(l).xbar->rows() *
                                           hw.layer(l).xbar->cols());
    if (is_conv[l]) {
      conv_ppc += static_cast<double>(stats[l].total_pulses);
      conv_cells += cells;
    } else {
      fc_ppc += static_cast<double>(stats[l].total_pulses);
      fc_cells += cells;
    }
  }
  std::cout << "Programming pulses per cell — conv: "
            << format_double(conv_ppc / conv_cells, 1)
            << ", fc: " << format_double(fc_ppc / fc_cells, 1) << "\n";
  std::cout << "Paper reference: convolutional layers are programmed more\n"
               "often and therefore age faster; see EXPERIMENTS.md for the\n"
               "discussion of where our thermal common-mode model departs\n"
               "from this on the window metric.\n";
  std::cout << "CSV written to results/fig11_layer_aging.csv\n";
  return 0;
}
