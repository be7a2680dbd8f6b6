#include "aging/tracker.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace xbarlife::aging {

RepresentativeTracker::RepresentativeTracker(std::size_t rows,
                                             std::size_t cols)
    : rows_(rows),
      cols_(cols),
      block_rows_((rows + 2) / 3),
      block_cols_((cols + 2) / 3),
      stress_(block_rows_ * block_cols_, 0.0),
      self_ambient_(block_rows_ * block_cols_, 0.0),
      pulses_(block_rows_ * block_cols_, 0) {
  XB_CHECK(rows > 0 && cols > 0, "tracker needs a non-empty array");
}

std::size_t RepresentativeTracker::block_index(std::size_t r,
                                               std::size_t c) const {
  XB_CHECK(r < rows_ && c < cols_, "tracker cell out of range");
  return (r / 3) * block_cols_ + (c / 3);
}

bool RepresentativeTracker::is_representative(std::size_t r,
                                              std::size_t c) const {
  const auto [rr, rc] = representative_for(r, c);
  return rr == r && rc == c;
}

std::pair<std::size_t, std::size_t> RepresentativeTracker::representative_for(
    std::size_t r, std::size_t c) const {
  XB_CHECK(r < rows_ && c < cols_, "tracker cell out of range");
  // Center of the 3x3 block, clamped into the array for edge blocks.
  const std::size_t br = (r / 3) * 3;
  const std::size_t bc = (c / 3) * 3;
  return {std::min(br + 1, rows_ - 1), std::min(bc + 1, cols_ - 1)};
}

void RepresentativeTracker::record_pulse(std::size_t r, std::size_t c,
                                         double stress_increment,
                                         double ambient_increment) {
  const std::uint64_t traced =
      record_pulse_untallied(r, c, stress_increment, ambient_increment);
  tally_pulses(1, traced);
}

std::uint64_t RepresentativeTracker::record_pulse_untallied(
    std::size_t r, std::size_t c, double stress_increment,
    double ambient_increment) {
  XB_CHECK(stress_increment >= 0.0, "stress increment must be >= 0");
  XB_CHECK(ambient_increment >= 0.0, "ambient increment must be >= 0");
  ambient_ += ambient_increment;
  if (!is_representative(r, c)) {
    return 0;  // untraced cell: the hardware has no per-cell counter here
  }
  const std::size_t b = block_index(r, c);
  stress_[b] += stress_increment;
  // The representative's own pulses already carry their local heating in
  // `stress_increment`; remember how much of the ambient pool they
  // exported so the estimate does not charge the crosstalk twice.
  self_ambient_[b] += ambient_increment;
  ++pulses_[b];
  return 1;
}

void RepresentativeTracker::tally_pulses(std::uint64_t pulses,
                                         std::uint64_t traced) {
  if (pulse_counter_ != nullptr && pulses > 0) {
    pulse_counter_->add(pulses);
  }
  if (traced_pulse_counter_ != nullptr && traced > 0) {
    traced_pulse_counter_->add(traced);
  }
}

double RepresentativeTracker::stress_estimate(std::size_t r,
                                              std::size_t c) const {
  const std::size_t b = block_index(r, c);
  return stress_[b] + ambient_ - self_ambient_[b];
}

std::uint64_t RepresentativeTracker::pulse_estimate(std::size_t r,
                                                    std::size_t c) const {
  return pulses_[block_index(r, c)];
}

void RepresentativeTracker::attach_counters(obs::Counter* pulses,
                                            obs::Counter* traced_pulses) {
  pulse_counter_ = pulses;
  traced_pulse_counter_ = traced_pulses;
}

void RepresentativeTracker::reset() {
  std::fill(stress_.begin(), stress_.end(), 0.0);
  std::fill(self_ambient_.begin(), self_ambient_.end(), 0.0);
  std::fill(pulses_.begin(), pulses_.end(), 0);
  ambient_ = 0.0;
}

void RepresentativeTracker::save_state(persist::StateWriter& w) const {
  w.u64(stress_.size());
  char* p = w.extend(stress_.size() * kBlockStateBytes);
  for (std::size_t b = 0; b < stress_.size(); ++b) {
    p = persist::put(p, stress_[b]);
    p = persist::put(p, self_ambient_[b]);
    p = persist::put(p, pulses_[b]);
  }
  w.f64(ambient_);
}

void RepresentativeTracker::load_state(persist::StateReader& r) {
  const std::uint64_t blocks = r.u64();
  XB_CHECK(blocks == stress_.size(),
           "tracker snapshot block count does not match array geometry");
  const char* p = r.take(stress_.size() * kBlockStateBytes);
  for (std::size_t b = 0; b < stress_.size(); ++b) {
    p = persist::get(p, stress_[b]);
    p = persist::get(p, self_ambient_[b]);
    p = persist::get(p, pulses_[b]);
  }
  ambient_ = r.f64();
}

}  // namespace xbarlife::aging
