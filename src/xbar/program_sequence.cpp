#include "xbar/program_sequence.hpp"

#include "common/error.hpp"

namespace xbarlife::xbar {

SequenceStats ProgramSequence::stats() const {
  SequenceStats s;
  bool in_pulse_run = false;
  for (const ProgramOp& op : ops_) {
    const bool pulse = op.kind == OpKind::kProgramPulse;
    if (pulse) {
      ++s.pulses;
      if (!in_pulse_run) ++s.batches;
    }
    in_pulse_run = pulse;
  }
  return s;
}

void ProgramSequence::save_state(persist::StateWriter& w) const {
  w.u64(ops_.size());
  char* p = w.extend(ops_.size() * kOpStateBytes);
  for (const ProgramOp& op : ops_) {
    p = persist::put(p, static_cast<std::uint8_t>(op.kind));
    p = persist::put(p, op.row);
    p = persist::put(p, op.col);
    p = persist::put(p, op.value);
  }
}

ProgramSequence ProgramSequence::load_state(persist::StateReader& r) {
  ProgramSequence seq;
  // array_count rejects a corrupt prefix before the resize.
  seq.ops_.resize(r.array_count(kOpStateBytes));
  const char* p = r.take(seq.ops_.size() * kOpStateBytes);
  for (ProgramOp& op : seq.ops_) {
    std::uint8_t kind = 0;
    p = persist::get(p, kind);
    if (kind != static_cast<std::uint8_t>(OpKind::kProgramPulse) &&
        kind != static_cast<std::uint8_t>(OpKind::kBarrier)) {
      throw InvalidArgument("ProgramSequence: bad op kind " +
                            std::to_string(kind));
    }
    op.kind = static_cast<OpKind>(kind);
    p = persist::get(p, op.row);
    p = persist::get(p, op.col);
    p = persist::get(p, op.value);
  }
  return seq;
}

SequenceBuilder::SequenceBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), lanes_(cols) {}

std::vector<ProgramOp>& SequenceBuilder::lane(std::size_t c) {
  if (c >= cols_) {
    throw InvalidArgument("SequenceBuilder: column " + std::to_string(c) +
                          " out of range (cols=" + std::to_string(cols_) +
                          ")");
  }
  return lanes_[c];
}

void SequenceBuilder::pulse(std::size_t r, std::size_t c, double target_r) {
  if (r >= rows_) {
    throw InvalidArgument("SequenceBuilder: row " + std::to_string(r) +
                          " out of range (rows=" + std::to_string(rows_) +
                          ")");
  }
  lane(c).push_back(ProgramOp::pulse(r, c, target_r));
  ++staged_;
}

ProgramSequence SequenceBuilder::build() {
  ProgramSequence seq;
  seq.reserve(staged_ + cols_);
  bool first = true;
  for (std::size_t c = 0; c < cols_; ++c) {
    if (lanes_[c].empty()) continue;
    if (!first) seq.push(ProgramOp::barrier());
    for (const ProgramOp& op : lanes_[c]) seq.push(op);
    lanes_[c].clear();
    first = false;
  }
  staged_ = 0;
  return seq;
}

}  // namespace xbarlife::xbar
