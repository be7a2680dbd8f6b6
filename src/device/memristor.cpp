#include "device/memristor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace xbarlife::device {

PulseContext make_pulse_context(const DeviceParams& params,
                                const aging::AgingModel& model) {
  params.validate();
  const aging::AgingParams& ap = model.params();
  PulseContext ctx;
  ctx.r_fresh_min = params.r_min_fresh;
  ctx.r_fresh_max = params.r_max_fresh;
  ctx.v_prog = params.v_prog;
  ctx.compliance_current_a = params.compliance_current_a;
  ctx.a_f = ap.a_f;
  ctx.m_f = ap.m_f;
  ctx.a_g = ap.a_g;
  ctx.m_g = ap.m_g;
  ctx.r_floor = ap.r_floor;
  ctx.i_ref = ap.reference_current_a;
  ctx.alpha = ap.current_exponent;
  ctx.stress_scale =
      params.t_pulse_s * model.arrhenius_factor(params.temperature_k);
  ctx.unit_alpha = ap.current_exponent == 1.0;
  ctx.shared_window_exponent = ap.m_f == ap.m_g;
  return ctx;
}

void DeviceParams::validate() const {
  XB_CHECK(r_min_fresh > 0.0, "r_min_fresh must be positive");
  XB_CHECK(r_max_fresh > r_min_fresh, "need r_max_fresh > r_min_fresh");
  XB_CHECK(levels >= 2, "need at least two levels");
  XB_CHECK(levels <= kMaxLevels, "levels exceeds DeviceParams::kMaxLevels");
  XB_CHECK(v_prog > 0.0, "programming voltage must be positive");
  XB_CHECK(t_pulse_s > 0.0, "pulse width must be positive");
  XB_CHECK(temperature_k > 0.0, "temperature must be positive");
  XB_CHECK(compliance_current_a > 0.0, "compliance current must be > 0");
}

Memristor::Memristor(const DeviceParams* params,
                     const aging::AgingModel* model,
                     const double* ambient_stress)
    : params_(params),
      model_(model),
      ambient_stress_(ambient_stress),
      resistance_(0.0) {
  XB_CHECK(params != nullptr && model != nullptr,
           "memristor needs device params and aging model");
  params_->validate();
  resistance_ = params_->r_max_fresh;
}

aging::AgedWindow Memristor::aged_window() const {
  return model_->aged_window(params_->r_min_fresh, params_->r_max_fresh,
                             stress());
}

std::size_t Memristor::usable_levels() const {
  return model_->usable_levels(params_->r_min_fresh, params_->r_max_fresh,
                               params_->levels, stress());
}

double Memristor::program(double target_r) {
  XB_CHECK(target_r > 0.0, "target resistance must be positive");
  const aging::AgedWindow w = aged_window();
  // A dead window (r_max collapsed onto r_min) still clamps — the device
  // just becomes a near-constant resistor.
  const double achieved =
      std::clamp(target_r, std::min(w.r_min, w.r_max), std::max(w.r_min, w.r_max));
  const double current =
      std::min(params_->v_prog / achieved, params_->compliance_current_a);
  last_increment_ = model_->stress_increment(params_->t_pulse_s,
                                             params_->temperature_k, current);
  stress_ += last_increment_;
  ++pulses_;
  resistance_ = achieved;
  return achieved;
}

double Memristor::program_with(const PulseContext& ctx, double target_r) {
  XB_CHECK(target_r > 0.0, "target resistance must be positive");
  const aging::AgedWindow w = aged_window_of(ctx, stress());
  const double achieved = std::clamp(target_r, std::min(w.r_min, w.r_max),
                                     std::max(w.r_min, w.r_max));
  const double current =
      std::min(ctx.v_prog / achieved, ctx.compliance_current_a);
  // Inlined stress_increment(): stress_scale * (I/I_ref)^alpha, matching
  // the left-associated t_pulse * arrhenius * current_factor product.
  const double x = current / ctx.i_ref;
  const double current_factor = ctx.unit_alpha ? x : std::pow(x, ctx.alpha);
  last_increment_ = ctx.stress_scale * current_factor;
  stress_ += last_increment_;
  ++pulses_;
  resistance_ = achieved;
  return achieved;
}

void Memristor::force_resistance(double r) {
  XB_CHECK(r > 0.0, "forced resistance must be positive");
  resistance_ = r;
}

void Memristor::drift_to(double r) {
  drift_to(make_pulse_context(*params_, *model_), r);
}

void Memristor::drift_to(const PulseContext& ctx, double r) {
  XB_CHECK(r > 0.0, "drift target must be positive");
  const aging::AgedWindow w = aged_window_of(ctx, stress());
  resistance_ = std::clamp(r, std::min(w.r_min, w.r_max),
                           std::max(w.r_min, w.r_max));
}

}  // namespace xbarlife::device
