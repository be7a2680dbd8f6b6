// ProgramSequence: the batched command stream between tuning controllers
// and crossbar arrays.
//
// Controllers (the mapper's write-verify pass, the online tuner, the
// resilience ladder) no longer poke cells one program_cell() call at a
// time; they *emit* a compact instruction sequence — program pulses
// separated by barriers — and hand it to a ProgramExecutor
// (executor.hpp) for execution against the device. The split is the
// SoftMC idiom: building the command stream is cheap and backend-free,
// executing it is where the device model (or, later, real hardware /
// a remote simulator) lives. Sequences serialize through the persist
// wire format, so a daemon can ship them between processes verbatim.
//
// Op order is semantically significant: programming pulses age cells,
// heat the shared ambient pool, and consume the ordered write-noise
// stream, so every executor MUST execute ops in sequence order. The
// SequenceBuilder produces the canonical per-column order (all ops of
// column 0, a barrier, all ops of column 1, ...) that models a driver
// setting up one column line and streaming the row pulses through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "persist/state_io.hpp"

namespace xbarlife::xbar {

/// Instruction kinds. The numeric values are the wire encoding; 1 and 2
/// are unassigned and refused by load_state like any unknown kind.
enum class OpKind : std::uint8_t {
  kProgramPulse = 0,  ///< program cell (row, col) toward `value` ohms
  kBarrier = 3,       ///< ordering fence between column batches
};

/// One instruction. `value` is the target resistance (ohms) for a pulse,
/// zero for a barrier.
struct ProgramOp {
  OpKind kind = OpKind::kBarrier;
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;

  static ProgramOp pulse(std::size_t r, std::size_t c, double target_r) {
    return {OpKind::kProgramPulse, static_cast<std::uint32_t>(r),
            static_cast<std::uint32_t>(c), target_r};
  }
  static ProgramOp barrier() { return {OpKind::kBarrier, 0, 0, 0.0}; }

  bool operator==(const ProgramOp&) const = default;
};

/// Structural summary of a sequence. Executors report these verbatim, so
/// batch counters are identical across backends by construction.
struct SequenceStats {
  std::uint64_t pulses = 0;
  /// Maximal contiguous runs of program pulses — the units a batching
  /// executor executes with hoisted per-batch state.
  std::uint64_t batches = 0;
};

/// An immutable-after-build instruction stream.
class ProgramSequence {
 public:
  ProgramSequence() = default;

  void push(const ProgramOp& op) { ops_.push_back(op); }
  void reserve(std::size_t n) { ops_.reserve(n); }

  const std::vector<ProgramOp>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  SequenceStats stats() const;

  /// Wire format: op count, then one block of kOpStateBytes per op
  /// (kind u8, row u32, col u32, value-bits f64). Floats travel bit-cast,
  /// so a round trip is byte-identical.
  void save_state(persist::StateWriter& w) const;
  static ProgramSequence load_state(persist::StateReader& r);

  static constexpr std::size_t kOpStateBytes = 1 + 4 + 4 + 8;

  bool operator==(const ProgramSequence&) const = default;

 private:
  std::vector<ProgramOp> ops_;
};

/// Builds the canonical column-batched sequence: ops are staged into
/// per-column lanes in push order, and build() emits the non-empty lanes
/// in ascending column order with a barrier between consecutive columns.
class SequenceBuilder {
 public:
  SequenceBuilder(std::size_t rows, std::size_t cols);

  void pulse(std::size_t r, std::size_t c, double target_r);

  std::size_t staged_ops() const { return staged_; }
  bool empty() const { return staged_ == 0; }

  /// Emits the staged ops and resets the builder for reuse.
  ProgramSequence build();

 private:
  std::vector<ProgramOp>& lane(std::size_t c);

  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<ProgramOp>> lanes_;
  std::size_t staged_ = 0;
};

}  // namespace xbarlife::xbar
