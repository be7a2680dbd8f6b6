#include "core/checkpoint_loop.hpp"

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "obs/json.hpp"

namespace xbarlife::core {

namespace {

/// A seq-less persist meta line, spliced into the real trace verbatim.
void emit_meta(const obs::Obs& obs, obs::JsonValue line) {
  if (obs.trace_enabled()) {
    obs.trace->emit_line(line.dump());
  }
}

}  // namespace

obs::Obs run_level_obs(const obs::Obs& obs,
                       const persist::CheckpointStore* store) {
  obs::Obs out = obs;
  if (store != nullptr) {
    out.trace = nullptr;
  }
  return out;
}

CheckpointLoop::CheckpointLoop(LoopState& state,
                               persist::CheckpointStore* store,
                               const obs::Obs& obs, Trace mode)
    : state_(&state),
      store_(store),
      obs_(obs),
      loop_obs_(obs),
      buffered_(mode == Trace::kBuffered) {
  if (store_ == nullptr) {
    return;
  }
  restored_ = store_->load(*this);
  if (restored_.has_value()) {
    obs::JsonValue line = obs::JsonValue::object();
    line.set("event", "resume");
    line.set("checkpoint", persist::kCheckpointSchema);
    line.set("kind", kind());
    line.set("generation", restored_->generation);
    line.set("fallback_used", restored_->fallback_used);
    emit_meta(obs_, std::move(line));
  }
  if (buffered_ && obs_.trace_enabled()) {
    child_ = std::make_unique<obs::EventTrace>(&buffer_);
    child_->set_next_seq(trace_seq_);
    loop_obs_.trace = child_.get();
  }
}

void CheckpointLoop::commit(bool work_remains, std::string_view interrupted) {
  if (store_ == nullptr) {
    return;
  }
  if (child_ != nullptr) {
    trace_lines_.insert(trace_lines_.end(), buffer_.lines().begin(),
                        buffer_.lines().end());
    buffer_.clear();
    trace_seq_ = child_->events_emitted();
  }
  store_->save(*this);
  obs::JsonValue line = obs::JsonValue::object();
  line.set("event", "checkpoint_saved");
  line.set("kind", kind());
  line.set("generation", store_->generation());
  emit_meta(obs_, std::move(line));
  if (shutdown_requested() && work_remains) {
    throw InterruptedError(std::string(interrupted) +
                           "; resume with the same checkpoint: " +
                           store_->path());
  }
}

void CheckpointLoop::replay() const {
  if (store_ == nullptr || !obs_.trace_enabled()) {
    return;
  }
  for (const std::string& line : trace_lines_) {
    obs_.trace->emit_line(line);
  }
}

std::string CheckpointLoop::serialize() const {
  persist::StateWriter w;
  state_->save(w);
  if (buffered_) {
    w.u64(trace_seq_);
    w.u64(trace_lines_.size());
    for (const std::string& line : trace_lines_) {
      w.str(line);
    }
  }
  return w.release();
}

void CheckpointLoop::restore(std::string_view payload) {
  persist::StateReader r(payload);
  state_->load(r);
  if (buffered_) {
    trace_seq_ = r.u64();
    trace_lines_.resize(r.array_count(8));
    for (std::string& line : trace_lines_) {
      line = r.str();
    }
  }
  XB_CHECK(r.done(), kind() + " snapshot has trailing bytes");
}

}  // namespace xbarlife::core
