#include "data/synthetic.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"

namespace xbarlife::data {

namespace {

/// One class's band-limited texture model: a handful of 2-D sinusoids with
/// class-specific frequency, phase and orientation per channel.
struct TextureWave {
  double fx;
  double fy;
  double phase;
  double amplitude;
};

struct ClassModel {
  // waves[channel][wave]
  std::vector<std::vector<TextureWave>> waves;
};

ClassModel make_class_model(const SyntheticSpec& spec, Rng& rng) {
  ClassModel model;
  model.waves.resize(spec.channels);
  for (auto& channel_waves : model.waves) {
    channel_waves.reserve(spec.texture_waves);
    for (std::size_t w = 0; w < spec.texture_waves; ++w) {
      TextureWave tw;
      // Low spatial frequencies (1..4 cycles across the image) keep the
      // texture learnable by small conv kernels.
      tw.fx = rng.uniform(0.5, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      tw.fy = rng.uniform(0.5, 4.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
      tw.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      tw.amplitude = rng.uniform(0.4, 1.0);
      channel_waves.push_back(tw);
    }
  }
  return model;
}

void render_sample(const SyntheticSpec& spec, const ClassModel& model,
                   Rng& rng, float* out) {
  // Per-sample nuisance parameters shared across the image.
  const double gain = rng.uniform(0.7, 1.3);
  const double dx = rng.uniform(-2.0, 2.0);
  const double dy = rng.uniform(-2.0, 2.0);
  const double h = static_cast<double>(spec.height);
  const double w = static_cast<double>(spec.width);
  const std::size_t waves = spec.texture_waves;
  // Each wave's phase terms fx*(x+dx)/w per column and fy*(y+dy)/h per
  // row, computed once per channel: the pixel loop only adds them, with
  // the doubles the per-pixel expression gave.
  std::vector<double> col_terms(waves * spec.width);
  std::vector<double> row_terms(waves * spec.height);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < spec.channels; ++c) {
    const std::vector<TextureWave>& channel_waves = model.waves[c];
    for (std::size_t k = 0; k < waves; ++k) {
      const TextureWave& tw = channel_waves[k];
      for (std::size_t x = 0; x < spec.width; ++x) {
        col_terms[k * spec.width + x] =
            tw.fx * (static_cast<double>(x) + dx) / w;
      }
      for (std::size_t y = 0; y < spec.height; ++y) {
        row_terms[k * spec.height + y] =
            tw.fy * (static_cast<double>(y) + dy) / h;
      }
    }
    for (std::size_t y = 0; y < spec.height; ++y) {
      for (std::size_t x = 0; x < spec.width; ++x, ++idx) {
        double v = 0.0;
        for (std::size_t k = 0; k < waves; ++k) {
          const TextureWave& tw = channel_waves[k];
          const double arg =
              2.0 * std::numbers::pi *
                  (col_terms[k * spec.width + x] +
                   row_terms[k * spec.height + y]) +
              tw.phase;
          v += tw.amplitude * std::sin(arg);
        }
        v = gain * v / static_cast<double>(spec.texture_waves);
        v += rng.gaussian(0.0, spec.noise);
        out[idx] = static_cast<float>(v);
      }
    }
  }
}

Dataset render_split(const SyntheticSpec& spec,
                     const std::vector<ClassModel>& models,
                     std::size_t per_class, Rng& rng) {
  Dataset ds;
  ds.classes = spec.classes;
  ds.channels = spec.channels;
  ds.height = spec.height;
  ds.width = spec.width;
  const std::size_t n = per_class * spec.classes;
  ds.images = Tensor(Shape{n, ds.features()});
  ds.labels.reserve(n);
  // Interleave classes so any prefix of the dataset is class-balanced.
  std::size_t row = 0;
  for (std::size_t s = 0; s < per_class; ++s) {
    for (std::size_t c = 0; c < spec.classes; ++c, ++row) {
      render_sample(spec, models[c], rng,
                    ds.images.data() + row * ds.features());
      ds.labels.push_back(static_cast<std::int32_t>(c));
    }
  }
  ds.validate();
  return ds;
}

}  // namespace

TrainTest make_synthetic(const SyntheticSpec& spec) {
  XB_CHECK(spec.classes > 0, "need at least one class");
  XB_CHECK(spec.train_per_class > 0 && spec.test_per_class > 0,
           "need positive sample counts");
  XB_CHECK(spec.channels > 0 && spec.height > 0 && spec.width > 0,
           "need positive image dims");
  XB_CHECK(spec.noise >= 0.0, "noise must be non-negative");
  XB_CHECK(spec.texture_waves > 0, "need at least one texture wave");

  Rng master(spec.seed);
  Rng model_rng = master.fork(0);
  std::vector<ClassModel> models;
  models.reserve(spec.classes);
  for (std::size_t c = 0; c < spec.classes; ++c) {
    models.push_back(make_class_model(spec, model_rng));
  }
  Rng train_rng = master.fork(1);
  Rng test_rng = master.fork(2);
  TrainTest tt;
  tt.train = render_split(spec, models, spec.train_per_class, train_rng);
  tt.test = render_split(spec, models, spec.test_per_class, test_rng);
  return tt;
}

}  // namespace xbarlife::data
