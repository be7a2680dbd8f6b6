// The one checkpoint protocol of every resumable loop: the trainer's
// epochs, the lifetime simulator's sessions and the sweep engine's job
// chunks all resume, buffer, commit and replay through CheckpointLoop.
//
// With a store, the loop
//   * restores the newest valid snapshot (a fresh start when none
//     exists) and emits the `resume` meta line;
//   * hands the loop body an Obs whose trace is buffered in a child
//     EventTrace that continues the stored seq numbering, so that a
//     resumed run replays the complete stream exactly once;
//   * commits each finished unit: drains the buffer, saves a new
//     generation, emits `checkpoint_saved`, and raises InterruptedError
//     (CLI exit 6) when a shutdown is pending and work remains, so a
//     signal during the last unit changes nothing;
//   * replays the restored and fresh lines into the real trace at the
//     end.
// The payload is the state's own fields followed by the trace trailer:
// the next seq and the buffered lines. A grid whose jobs persist their
// own lines (the sweep engine) takes the direct mode: no buffering and
// no trailer. The persist meta lines carry no seq and no t_ms, so
// checkpoint I/O never shifts the numbering of real events; a resumed
// trace equals an uninterrupted one once they are stripped (see
// docs/output_schema.md). Without a store every call passes through.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_trace.hpp"
#include "obs/obs.hpp"
#include "obs/sink.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::core {

/// What a resumable loop persists besides its trace. The fingerprint
/// pins the configuration a snapshot belongs to; the trainer's and the
/// lifetime's leave out their horizon (epochs, max_sessions), so a
/// finished run can resume toward a longer one.
class LoopState {
 public:
  virtual ~LoopState() = default;
  /// Snapshot kind tag ("train", "lifetime", "sweep", "faults").
  virtual std::string kind() const = 0;
  virtual std::uint64_t fingerprint() const = 0;
  virtual void save(persist::StateWriter& w) const = 0;
  virtual void load(persist::StateReader& r) = 0;
};

/// `obs` for a run-level span (train.fit, experiment.scenario): a resumed
/// run would re-open it on every attempt, so with a store it feeds the
/// profiler and the metrics but not the trace.
obs::Obs run_level_obs(const obs::Obs& obs,
                       const persist::CheckpointStore* store);

class CheckpointLoop final : public persist::Checkpointable {
 public:
  enum class Trace { kBuffered, kDirect };

  /// Restores `state` from `store` (null: no checkpoint). `state` and
  /// `store` must outlive the loop.
  CheckpointLoop(LoopState& state, persist::CheckpointStore* store,
                 const obs::Obs& obs, Trace mode = Trace::kBuffered);

  /// The restored generation, if a snapshot was restored.
  const std::optional<persist::CheckpointStore::SnapshotInfo>& restored()
      const {
    return restored_;
  }
  /// The handle the loop body reports through.
  const obs::Obs& obs() const { return loop_obs_; }

  /// Ends a unit: drains the buffer, saves, emits `checkpoint_saved`, and
  /// raises InterruptedError("<interrupted>; resume with the same
  /// checkpoint: <path>") when a shutdown is pending and `work_remains`.
  void commit(bool work_remains, std::string_view interrupted);
  /// Emits every buffered line (restored and fresh) into the real trace.
  void replay() const;

  std::string kind() const override { return state_->kind(); }
  std::uint64_t fingerprint() const override {
    return state_->fingerprint();
  }
  std::string serialize() const override;
  void restore(std::string_view payload) override;

 private:
  LoopState* state_;
  persist::CheckpointStore* store_;
  obs::Obs obs_;
  obs::Obs loop_obs_;
  bool buffered_;
  std::optional<persist::CheckpointStore::SnapshotInfo> restored_;
  obs::MemorySink buffer_;
  std::unique_ptr<obs::EventTrace> child_;
  std::uint64_t trace_seq_ = 0;
  std::vector<std::string> trace_lines_;
};

}  // namespace xbarlife::core
