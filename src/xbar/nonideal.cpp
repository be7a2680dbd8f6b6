#include "xbar/nonideal.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace xbarlife::xbar {

void NonidealityConfig::validate() const {
  XB_CHECK(write_noise_sigma >= 0.0, "write noise sigma must be >= 0");
  XB_CHECK(read_noise_sigma >= 0.0, "read noise sigma must be >= 0");
  XB_CHECK(stuck_off_fraction >= 0.0 && stuck_off_fraction <= 1.0,
           "stuck-off fraction must lie in [0, 1]");
  XB_CHECK(stuck_on_fraction >= 0.0 && stuck_on_fraction <= 1.0,
           "stuck-on fraction must lie in [0, 1]");
  XB_CHECK(stuck_off_fraction + stuck_on_fraction <= 1.0,
           "total stuck fraction must not exceed 1");
  XB_CHECK(line_resistance >= 0.0, "line resistance must be >= 0");
}

FaultMap::FaultMap(std::size_t rows, std::size_t cols,
                   const NonidealityConfig& config, std::uint64_t seed)
    : rows_(rows), cols_(cols), faults_(rows * cols, 0) {
  XB_CHECK(rows > 0 && cols > 0, "fault map needs a non-empty array");
  config.validate();
  Rng rng(seed);
  for (std::uint8_t& f : faults_) {
    const double u = rng.uniform();
    if (u < config.stuck_off_fraction) {
      f = static_cast<std::uint8_t>(Fault::kStuckOff);
      ++faults_total_;
    } else if (u < config.stuck_off_fraction + config.stuck_on_fraction) {
      f = static_cast<std::uint8_t>(Fault::kStuckOn);
      ++faults_total_;
    }
  }
}

FaultMap::Fault FaultMap::at(std::size_t r, std::size_t c) const {
  XB_CHECK(r < rows_ && c < cols_, "fault map index out of range");
  return static_cast<Fault>(faults_[r * cols_ + c]);
}

double apply_write_noise(const NonidealityConfig& config, double g,
                         Rng& rng) {
  XB_CHECK(g > 0.0, "conductance must be positive");
  if (config.write_noise_sigma == 0.0) {
    return g;
  }
  // Clamp the factor away from zero so a noise outlier cannot produce a
  // nonphysical non-positive conductance.
  const double factor =
      std::max(0.05, 1.0 + rng.gaussian(0.0, config.write_noise_sigma));
  return g * factor;
}

double apply_read_noise(const NonidealityConfig& config, double g,
                        Rng& rng) {
  XB_CHECK(g > 0.0, "conductance must be positive");
  if (config.read_noise_sigma == 0.0) {
    return g;
  }
  const double factor =
      std::max(0.05, 1.0 + rng.gaussian(0.0, config.read_noise_sigma));
  return g * factor;
}

double ir_drop_conductance(const NonidealityConfig& config, double g,
                           std::size_t r, std::size_t c) {
  XB_CHECK(g > 0.0, "conductance must be positive");
  if (config.line_resistance == 0.0) {
    return g;
  }
  const double r_wire =
      config.line_resistance * static_cast<double>(r + c + 2);
  return g / (1.0 + g * r_wire);
}

}  // namespace xbarlife::xbar
