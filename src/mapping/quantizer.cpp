#include "mapping/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife::mapping {

ResistanceQuantizer::ResistanceQuantizer(ResistanceRange fresh,
                                         std::size_t fresh_levels,
                                         double upper_cut)
    : fresh_(fresh), fresh_levels_(fresh_levels) {
  XB_CHECK(fresh.valid(), "quantizer needs a valid fresh range");
  XB_CHECK(fresh_levels >= 2, "quantizer needs at least two levels");
  XB_CHECK(upper_cut > 0.0, "upper cut must be positive");
  step_ = (fresh_.r_hi - fresh_.r_lo) /
          static_cast<double>(fresh_levels_ - 1);
  // Count fresh levels with resistance <= upper_cut; keep at least two so
  // a mapping always exists (a fully-collapsed window is the caller's
  // failure condition, detected through accuracy, not a crash).
  const double span = std::min(upper_cut, fresh_.r_hi) - fresh_.r_lo;
  std::size_t usable = 0;
  if (span >= 0.0) {
    usable = static_cast<std::size_t>(std::floor(span / step_ + 1e-9)) + 1;
  }
  usable_levels_ = std::clamp<std::size_t>(usable, 2, fresh_levels_);
  usable_range_ = ResistanceRange{
      fresh_.r_lo,
      fresh_.r_lo + static_cast<double>(usable_levels_ - 1) * step_};
}

ResistanceQuantizer::ResistanceQuantizer(ResistanceRange fresh,
                                         std::size_t fresh_levels)
    : ResistanceQuantizer(fresh, fresh_levels, fresh.r_hi) {}

double ResistanceQuantizer::level_resistance(std::size_t k) const {
  XB_CHECK(k < usable_levels_, "level index out of range");
  return fresh_.r_lo + static_cast<double>(k) * step_;
}

double ResistanceQuantizer::level_conductance(std::size_t k) const {
  return 1.0 / level_resistance(k);
}

std::size_t ResistanceQuantizer::nearest_level_for_resistance(
    double r) const {
  const double clamped =
      std::clamp(r, usable_range_.r_lo, usable_range_.r_hi);
  const auto k = static_cast<std::size_t>(
      std::llround((clamped - usable_range_.r_lo) / step_));
  return std::min(k, usable_levels_ - 1);
}

std::size_t ResistanceQuantizer::nearest_level_for_conductance(
    double g) const {
  XB_CHECK(g > 0.0, "conductance must be positive");
  const double r = 1.0 / g;
  // Bracket r on the resistance grid, then compare in conductance space:
  // between two resistance levels the conductance midpoint is NOT the
  // resistance midpoint.
  const double clamped =
      std::clamp(r, usable_range_.r_lo, usable_range_.r_hi);
  // Same epsilon-guarded floor as the constructor's level count: plain
  // truncation of (clamped - r_lo) / step_ can land at k - 1e-16 for a
  // resistance sitting exactly on level k, bracketing one level low.
  const auto lo = std::min(
      static_cast<std::size_t>(
          std::floor((clamped - usable_range_.r_lo) / step_ + 1e-9)),
      usable_levels_ - 1);
  const std::size_t hi = std::min(lo + 1, usable_levels_ - 1);
  const double g_lo = level_conductance(lo);
  const double g_hi = level_conductance(hi);
  return (std::fabs(g - g_lo) <= std::fabs(g - g_hi)) ? lo : hi;
}

}  // namespace xbarlife::mapping
