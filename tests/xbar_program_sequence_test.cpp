#include "xbar/program_sequence.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::xbar {
namespace {

TEST(ProgramOp, FactoriesEncodeKindAndOperands) {
  const ProgramOp p = ProgramOp::pulse(3, 7, 5e4);
  EXPECT_EQ(p.kind, OpKind::kProgramPulse);
  EXPECT_EQ(p.row, 3u);
  EXPECT_EQ(p.col, 7u);
  EXPECT_DOUBLE_EQ(p.value, 5e4);

  const ProgramOp b = ProgramOp::barrier();
  EXPECT_EQ(b.kind, OpKind::kBarrier);
  EXPECT_DOUBLE_EQ(b.value, 0.0);

  EXPECT_EQ(p, ProgramOp::pulse(3, 7, 5e4));
  EXPECT_NE(p, ProgramOp::pulse(3, 7, 6e4));
}

TEST(ProgramSequence, StatsCountKindsAndContiguousPulseRuns) {
  ProgramSequence seq;
  // Two pulse runs (lengths 2 and 1) split by a barrier, plus a trailing
  // barrier: batches counts maximal contiguous pulse runs.
  seq.push(ProgramOp::pulse(0, 0, 1e4));
  seq.push(ProgramOp::pulse(1, 0, 2e4));
  seq.push(ProgramOp::barrier());
  seq.push(ProgramOp::pulse(2, 0, 3e4));
  seq.push(ProgramOp::barrier());

  const SequenceStats s = seq.stats();
  EXPECT_EQ(s.pulses, 3u);
  EXPECT_EQ(s.batches, 2u);
}

TEST(ProgramSequence, EmptySequenceHasZeroStats) {
  const ProgramSequence seq;
  EXPECT_TRUE(seq.empty());
  const SequenceStats s = seq.stats();
  EXPECT_EQ(s.pulses, 0u);
  EXPECT_EQ(s.batches, 0u);
}

TEST(ProgramSequence, SerializationRoundTripIsByteIdentical) {
  ProgramSequence seq;
  seq.push(ProgramOp::pulse(5, 9, 12345.6789));
  seq.push(ProgramOp::barrier());
  seq.push(ProgramOp::pulse(0, 3, 0.25));

  persist::StateWriter w;
  seq.save_state(w);
  persist::StateReader r(w.data());
  const ProgramSequence back = ProgramSequence::load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back, seq);

  // A second serialization of the restored sequence must produce the
  // exact same bytes (floats travel bit-cast).
  persist::StateWriter w2;
  back.save_state(w2);
  EXPECT_EQ(w2.data(), w.data());
}

TEST(ProgramSequence, LoadRejectsUnknownOpKind) {
  // Only pulse (0) and barrier (3) are op kinds; 1 and 2 are unassigned.
  for (const int kind : {1, 2, 4, 200}) {
    persist::StateWriter w;
    w.u64(1);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(0);
    w.u32(0);
    w.f64(0.0);
    persist::StateReader r(w.data());
    EXPECT_THROW(ProgramSequence::load_state(r), InvalidArgument)
        << "kind " << kind;
  }
}

TEST(SequenceBuilder, GroupsOpsIntoAscendingColumnsWithBarriers) {
  SequenceBuilder b(4, 4);
  // Staged in scattered order; build() must emit column 1's lane, a
  // barrier, then column 3's lane (empty columns are skipped).
  b.pulse(0, 3, 1e4);
  b.pulse(1, 1, 2e4);
  b.pulse(2, 1, 4e4);
  b.pulse(3, 3, 3e4);
  EXPECT_EQ(b.staged_ops(), 4u);

  const ProgramSequence seq = b.build();
  const auto& ops = seq.ops();
  ASSERT_EQ(ops.size(), 5u);
  EXPECT_EQ(ops[0], ProgramOp::pulse(1, 1, 2e4));
  EXPECT_EQ(ops[1], ProgramOp::pulse(2, 1, 4e4));
  EXPECT_EQ(ops[2], ProgramOp::barrier());
  EXPECT_EQ(ops[3], ProgramOp::pulse(0, 3, 1e4));
  EXPECT_EQ(ops[4], ProgramOp::pulse(3, 3, 3e4));
}

TEST(SequenceBuilder, BuildResetsForReuse) {
  SequenceBuilder b(2, 2);
  b.pulse(0, 0, 1e4);
  EXPECT_FALSE(b.empty());
  const ProgramSequence first = b.build();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.staged_ops(), 0u);
  EXPECT_EQ(first.size(), 1u);

  b.pulse(1, 1, 2e4);
  const ProgramSequence second = b.build();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.ops()[0], ProgramOp::pulse(1, 1, 2e4));
}

TEST(SequenceBuilder, SingleColumnEmitsNoBarrier) {
  SequenceBuilder b(3, 3);
  b.pulse(0, 2, 1e4);
  b.pulse(1, 2, 2e4);
  const ProgramSequence seq = b.build();
  EXPECT_EQ(seq.ops(), (std::vector<ProgramOp>{ProgramOp::pulse(0, 2, 1e4),
                                               ProgramOp::pulse(1, 2, 2e4)}));
  const SequenceStats s = seq.stats();
  EXPECT_EQ(s.pulses, 2u);
  EXPECT_EQ(s.batches, 1u);
}

TEST(SequenceBuilder, RejectsOutOfRangeCoordinates) {
  SequenceBuilder b(2, 3);
  EXPECT_THROW(b.pulse(2, 0, 1e4), InvalidArgument);
  EXPECT_THROW(b.pulse(0, 3, 1e4), InvalidArgument);
  EXPECT_THROW(b.pulse(5, 0, 1e4), InvalidArgument);
}

}  // namespace
}  // namespace xbarlife::xbar
