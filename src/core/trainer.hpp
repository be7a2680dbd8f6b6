// Software training driver (Section II-A of the paper): minibatch SGD with
// either the traditional L2 regularizer or the proposed skewed two-segment
// regularizer (Section IV-A).
#pragma once

#include <string>
#include <vector>

#include "core/checkpoint_loop.hpp"
#include "data/synthetic.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/regularizer.hpp"
#include "obs/obs.hpp"
#include "persist/checkpoint.hpp"

namespace xbarlife::core {

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch = 32;
  double learning_rate = 0.05;
};

struct EpochStats {
  std::size_t epoch = 0;
  double loss = 0.0;
  double penalty = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
};

struct TrainHistory {
  std::vector<EpochStats> epochs;
  double final_test_accuracy = 0.0;
};

/// Resumable training driver: owns the cross-epoch state (optimizer
/// velocities, shuffle stream, epoch log) so a run can snapshot after
/// every epoch and pick up exactly where a killed process stopped.
///
/// One recipe for every network: momentum SGD (0.9) whose learning rate
/// decays by 0.97 per epoch over a fixed shuffle stream; under the skewed
/// regularizer the per-layer omegas freeze after the first epoch, so the
/// reference weights stop chasing the shrinking distribution.
///
/// An epoch is a CheckpointLoop unit (core/checkpoint_loop.hpp). The
/// trainer's state is the network parameters, the optimizer learning
/// rate and velocity buffers, the shuffle stream position and the frozen
/// skew omegas, so a killed-and-resumed run reproduces the uninterrupted
/// run's history and trace bit-identically (t_ms aside).
class Trainer : public LoopState {
 public:
  /// `net`, `data`, and `regularizer` must outlive the trainer.
  /// `regularizer` may be null (no penalty), an L2Regularizer
  /// (traditional training, "T") or a SkewedL2Regularizer (skewed
  /// training, "ST").
  Trainer(nn::Network& net, const data::TrainTest& data, TrainConfig config,
          nn::Regularizer* regularizer);

  /// Runs the remaining epochs. When observability is attached, every
  /// epoch emits a `train_epoch` event and the run updates the `train.*`
  /// metrics; the default handle disables all instrumentation.
  ///
  /// With a `store`, every epoch is a checkpointed unit.
  TrainHistory run(const obs::Obs& obs = {},
                   persist::CheckpointStore* store = nullptr);

  std::string kind() const override;
  std::uint64_t fingerprint() const override;
  void save(persist::StateWriter& w) const override;
  void load(persist::StateReader& r) override;

 private:
  nn::Network* net_;
  const data::TrainTest* data_;
  TrainConfig config_;
  nn::Regularizer* regularizer_;
  nn::SkewedL2Regularizer* skewed_;
  nn::SgdOptimizer optimizer_;
  Rng shuffle_rng_;
  TrainHistory history_;
  std::size_t next_epoch_ = 0;
};

/// Paper-style parameter bundle for skewed training (Table II): the
/// reference weight is omega_factor * sigma_i per layer, with penalties
/// lambda1 (left of omega) and lambda2 (right of omega).
struct SkewedTrainingParams {
  double lambda1 = 5e-4;
  double lambda2 = 5e-5;
  double omega_factor = -1.0;  ///< omega_i = factor * stddev(W_i)
};

}  // namespace xbarlife::core
