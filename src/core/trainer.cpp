#include "core/trainer.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::core {

constexpr double kMomentum = 0.9;
/// Multiplies the learning rate after each epoch.
constexpr double kLrDecay = 0.97;
/// Skewed training freezes the per-layer omegas after this many epochs.
constexpr std::size_t kOmegaFreezeEpoch = 1;
constexpr std::uint64_t kShuffleSeed = 17;

Trainer::Trainer(nn::Network& net, const data::TrainTest& data,
                 TrainConfig config, nn::Regularizer* regularizer)
    : net_(&net),
      data_(&data),
      config_(config),
      regularizer_(regularizer),
      skewed_(dynamic_cast<nn::SkewedL2Regularizer*>(regularizer)),
      optimizer_({config.learning_rate, kMomentum}),
      shuffle_rng_(kShuffleSeed) {
  XB_CHECK(config.epochs > 0, "need at least one epoch");
  XB_CHECK(config.batch > 0, "batch must be positive");
  data.train.validate();
  data.test.validate();
}

std::string Trainer::kind() const { return "train"; }

std::uint64_t Trainer::fingerprint() const {
  persist::Fingerprint fp;
  fp.add(std::string_view{"train"});
  // Horizon knob (epochs) excluded: a finished run may resume longer.
  fp.add(static_cast<std::uint64_t>(config_.batch));
  fp.add(config_.learning_rate);
  fp.add(static_cast<std::uint64_t>(data_->train.size()));
  fp.add(static_cast<std::uint64_t>(data_->test.size()));
  fp.add(static_cast<std::uint64_t>(net_->parameter_count()));
  if (skewed_ != nullptr) {
    fp.add(std::uint64_t{2});
    fp.add(skewed_->lambda1());
    fp.add(skewed_->lambda2());
    fp.add(skewed_->omega_factor());
  } else if (auto* l2 = dynamic_cast<nn::L2Regularizer*>(regularizer_)) {
    fp.add(std::uint64_t{1});
    fp.add(l2->lambda());
  } else {
    fp.add(std::uint64_t{0});
  }
  return fp.value();
}

void Trainer::save(persist::StateWriter& w) const {
  w.u64(next_epoch_);
  w.u64(history_.epochs.size());
  for (const EpochStats& es : history_.epochs) {
    w.u64(es.epoch);
    w.f64(es.loss);
    w.f64(es.penalty);
    w.f64(es.train_accuracy);
    w.f64(es.test_accuracy);
  }
  w.f64(optimizer_.learning_rate());
  persist::write_rng_state(w, shuffle_rng_);
  std::vector<nn::ParamRef> params = net_->params();
  w.u64(params.size());
  for (const nn::ParamRef& p : params) {
    w.u64(p.value->numel());
    for (const float v : p.value->flat()) {
      w.f32(v);
    }
    const Tensor* vel = optimizer_.velocity_for(p.value);
    w.boolean(vel != nullptr);
    if (vel != nullptr) {
      for (const float v : vel->flat()) {
        w.f32(v);
      }
    }
  }
  w.boolean(skewed_ != nullptr);
  if (skewed_ != nullptr) {
    const auto& omegas = skewed_->frozen_omegas();
    w.u64(omegas.size());
    for (const auto& o : omegas) {
      w.boolean(o.has_value());
      w.f64(o.value_or(0.0));
    }
  }
}

void Trainer::load(persist::StateReader& r) {
  next_epoch_ = r.u64();
  history_.epochs.resize(r.array_count(8));
  for (EpochStats& es : history_.epochs) {
    es.epoch = r.u64();
    es.loss = r.f64();
    es.penalty = r.f64();
    es.train_accuracy = r.f64();
    es.test_accuracy = r.f64();
  }
  optimizer_.set_learning_rate(r.f64());
  persist::read_rng_state(r, shuffle_rng_);
  std::vector<nn::ParamRef> params = net_->params();
  XB_CHECK(r.u64() == params.size(),
           "training snapshot parameter count does not match the network");
  for (nn::ParamRef& p : params) {
    XB_CHECK(r.u64() == p.value->numel(),
             "training snapshot tensor size does not match the network");
    for (float& v : p.value->flat()) {
      v = r.f32();
    }
    if (r.boolean()) {
      Tensor vel = *p.value;
      for (float& v : vel.flat()) {
        v = r.f32();
      }
      optimizer_.set_velocity(p.value, std::move(vel));
    }
  }
  const bool has_skewed = r.boolean();
  XB_CHECK(has_skewed == (skewed_ != nullptr),
           "training snapshot regularizer does not match this run");
  if (skewed_ != nullptr) {
    const std::size_t count = r.array_count(9);
    for (std::size_t i = 0; i < count; ++i) {
      const bool frozen = r.boolean();
      const double value = r.f64();
      if (frozen) {
        skewed_->freeze_omega(i, value);
      }
    }
  }
}

TrainHistory Trainer::run(const obs::Obs& obs,
                          persist::CheckpointStore* store) {
  CheckpointLoop loop(*this, store, obs);
  const obs::Obs& run_obs = loop.obs();
  const obs::Span fit_span(run_level_obs(obs, store), "train.fit");
  obs.progress_phase("train.epochs", next_epoch_, config_.epochs);
  for (std::size_t epoch = next_epoch_; epoch < config_.epochs; ++epoch) {
    check_job_deadline();
    // Inner scope: the epoch span must close before the commit below, so
    // the persisted stream holds the complete begin/end pair.
    {
      const obs::Span epoch_span(run_obs, "train.epoch");
      const auto order =
          data::shuffled_indices(data_->train.size(), shuffle_rng_);

      double loss_sum = 0.0;
      double penalty_sum = 0.0;
      double acc_sum = 0.0;
      std::size_t batches = 0;
      // Each batch gathers its samples straight from the training set.
      for (std::size_t start = 0; start < order.size();
           start += config_.batch) {
        const data::Dataset batch = data_->train.subset(
            std::span(order).subspan(
                start, std::min(config_.batch, order.size() - start)));
        const nn::TrainStats stats =
            net_->train_batch(batch.images, batch.labels, optimizer_,
                              regularizer_);
        loss_sum += stats.loss;
        penalty_sum += stats.penalty;
        acc_sum += stats.accuracy;
        ++batches;
      }

      EpochStats es;
      es.epoch = epoch;
      es.loss = loss_sum / static_cast<double>(batches);
      es.penalty = penalty_sum / static_cast<double>(batches);
      es.train_accuracy = acc_sum / static_cast<double>(batches);
      es.test_accuracy =
          net_->evaluate(data_->test.images, data_->test.labels);
      history_.epochs.push_back(es);

      run_obs.count("train.epochs");
      run_obs.count("train.batches", batches);
      if (run_obs.trace_enabled()) {
        run_obs.event("train_epoch",
                      {{"epoch", es.epoch},
                       {"loss", es.loss},
                       {"penalty", es.penalty},
                       {"train_accuracy", es.train_accuracy},
                       {"test_accuracy", es.test_accuracy}});
      }

      optimizer_.set_learning_rate(optimizer_.learning_rate() * kLrDecay);

      // Freeze the skew reference points once the distribution settles.
      if (skewed_ != nullptr && epoch + 1 == kOmegaFreezeEpoch) {
        std::vector<const Tensor*> weights;
        for (const nn::MappableWeight& mw : net_->mappable_weights()) {
          weights.push_back(mw.value);
        }
        skewed_->freeze_omegas(weights);
      }
    }
    obs.progress_tick();
    next_epoch_ = epoch + 1;
    loop.commit(epoch + 1 < config_.epochs,
                "training interrupted after epoch " + std::to_string(epoch));
  }
  XB_CHECK(!history_.epochs.empty(), "training produced no epochs");
  history_.final_test_accuracy = history_.epochs.back().test_accuracy;
  obs.set_gauge("train.final_test_accuracy", history_.final_test_accuracy);

  loop.replay();
  return history_;
}

}  // namespace xbarlife::core
