// Executor-backend contract tests: registry selection, sim's
// byte-identity with the per-cell reference, program_cell's thin-wrapper
// equivalence, and the pulse/batch accounting invariants shared by every
// backend.
#include "xbar/executor.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "persist/state_io.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/remote.hpp"

namespace xbarlife::xbar {
namespace {

device::DeviceParams dev() { return device::DeviceParams{}; }
aging::AgingParams ag() { return aging::AgingParams{}; }

/// Crosstalk makes the ambient pool order-dependent — the strictest
/// setting for byte-identity checks.
aging::AgingParams ag_crosstalk() {
  aging::AgingParams a;
  a.thermal_crosstalk = 0.05;
  return a;
}

std::string snapshot(const Crossbar& xb) {
  persist::StateWriter w;
  xb.save_state(w);
  return w.data();
}

/// A sequence exercising both op kinds across several columns:
/// multi-pulse column batches separated by barriers, each ending with a
/// second pulse on its first cell.
ProgramSequence mixed_sequence(std::size_t rows, std::size_t cols) {
  SequenceBuilder b(rows, cols);
  for (std::size_t c = 0; c < cols; c += 2) {
    for (std::size_t r = 0; r < rows; ++r) {
      b.pulse(r, c, 1e4 + 1e3 * static_cast<double>(r + c * rows));
    }
    b.pulse(0, c, 2.5e4);
  }
  return b.build();
}

TEST(ExecutorRegistry, ListsAllBackends) {
  const auto names = available_executors();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "sim");
  EXPECT_EQ(names[1], "remote");
}

TEST(ExecutorRegistry, SetExecutorSwitchesActiveBackend) {
  set_executor("remote");
  EXPECT_EQ(executor_name(), "remote");
  EXPECT_STREQ(select_executor().name(), "remote");
  set_executor("sim");
  EXPECT_EQ(executor_name(), "sim");
  // "" and "auto" resolve to the default (sim).
  set_executor("auto");
  EXPECT_EQ(executor_name(), "sim");
  set_executor("");
  EXPECT_EQ(executor_name(), "sim");
}

TEST(ExecutorRegistry, UnknownNameThrowsListingBackends) {
  // Whatever is active (the suite may run under XBARLIFE_EXECUTOR), a
  // failed set must leave it untouched.
  // The per-cell reference is not a backend either.
  const std::string before = executor_name();
  for (const std::string name : {"fpga", "percell"}) {
    try {
      set_executor(name);
      FAIL() << "expected InvalidArgument for " << name;
    } catch (const InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + name + "'"), std::string::npos);
      EXPECT_NE(msg.find("(available: sim, remote)"), std::string::npos);
    }
    EXPECT_EQ(executor_name(), before);
  }
}

TEST(Executors, SimMatchesPerCellByteIdenticalOnIdealArray) {
  const ProgramSequence seq = mixed_sequence(6, 5);
  Crossbar a(6, 5, dev(), ag_crosstalk());
  Crossbar b(6, 5, dev(), ag_crosstalk());

  const ExecReport ra = SimExecutor{}.execute(a, seq);
  const ExecReport rb = PerCellExecutor{}.execute(b, seq);

  EXPECT_EQ(snapshot(a), snapshot(b));
  EXPECT_EQ(ra.results, rb.results);
  EXPECT_EQ(ra.stats.pulses, rb.stats.pulses);
  EXPECT_EQ(ra.stats.batches, rb.stats.batches);
}

// Zero crosstalk makes every ambient share exactly +0.0, which lets the
// batched path skip the pool updates (`x += 0.0` is a bit-exact
// identity) — the elision BM_ProgramWeightsBatched's speedup rests on.
// This pins that the skip really is byte-identical to the per-cell
// path's unconditional pool accumulation.
TEST(Executors, SimMatchesPerCellByteIdenticalWithZeroCrosstalk) {
  aging::AgingParams zero;
  zero.thermal_crosstalk = 0.0;
  const ProgramSequence seq = mixed_sequence(6, 5);
  Crossbar a(6, 5, dev(), zero);
  Crossbar b(6, 5, dev(), zero);

  const ExecReport ra = SimExecutor{}.execute(a, seq);
  const ExecReport rb = PerCellExecutor{}.execute(b, seq);

  EXPECT_EQ(snapshot(a), snapshot(b));
  EXPECT_EQ(ra.results, rb.results);
  EXPECT_EQ(a.ambient_stress(), 0.0);
}

TEST(Executors, SimMatchesPerCellByteIdenticalUnderNonideality) {
  // Write noise, read noise and stuck cells all consume ordered RNG
  // streams; both backends must consume them identically in op order.
  NonidealityConfig cfg;
  cfg.write_noise_sigma = 0.05;
  cfg.read_noise_sigma = 0.02;
  cfg.stuck_off_fraction = 0.05;
  cfg.stuck_on_fraction = 0.05;

  const ProgramSequence seq = mixed_sequence(8, 6);
  Crossbar a(8, 6, dev(), ag_crosstalk());
  Crossbar b(8, 6, dev(), ag_crosstalk());
  a.configure_nonideality(cfg, 99);
  b.configure_nonideality(cfg, 99);

  const ExecReport ra = SimExecutor{}.execute(a, seq);
  const ExecReport rb = PerCellExecutor{}.execute(b, seq);

  EXPECT_EQ(snapshot(a), snapshot(b));
  EXPECT_EQ(ra.results, rb.results);
}

TEST(Executors, ReportAlignsResultsWithOps) {
  SequenceBuilder b(3, 3);
  b.pulse(0, 1, 2e4);
  b.pulse(2, 2, 3e4);
  const ProgramSequence seq = b.build();

  Crossbar xb(3, 3, dev(), ag());
  const ExecReport rep = SimExecutor{}.execute(xb, seq);
  ASSERT_EQ(rep.results.size(), seq.size());
  EXPECT_DOUBLE_EQ(rep.results[0], 2e4);  // achieved resistance
  EXPECT_DOUBLE_EQ(rep.results[1], 0.0);  // barrier carries no result
  EXPECT_DOUBLE_EQ(rep.results[2], 3e4);
  EXPECT_EQ(rep.stats.pulses, 2u);
  EXPECT_EQ(rep.stats.batches, 2u);
}

TEST(Executors, ProgramCellEqualsOneOpSequence) {
  Crossbar a(3, 3, dev(), ag_crosstalk());
  Crossbar b(3, 3, dev(), ag_crosstalk());

  const double direct = a.program_cell(1, 2, 4e4);

  SequenceBuilder builder(3, 3);
  builder.pulse(1, 2, 4e4);
  const ExecReport rep = SimExecutor{}.execute(b, builder.build());

  ASSERT_EQ(rep.results.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.results[0], direct);
  EXPECT_EQ(snapshot(a), snapshot(b));
}

// Satellite 2 (pulse accounting): total_pulses and the attached obs
// counters must agree exactly across backends — the batched path tallies
// per batch, the per-cell path per pulse, and the remote path credits the
// client-side counters after restoring the worker's state — but the
// totals are identical.
TEST(Executors, PulseAccountingIdenticalAcrossBackends) {
  const ProgramSequence seq = mixed_sequence(9, 9);

  obs::Counter pulses_a, traced_a, seqs_a, batches_a;
  obs::Counter pulses_b, traced_b, seqs_b, batches_b;
  obs::Counter pulses_c, traced_c, seqs_c, batches_c;

  Crossbar a(9, 9, dev(), ag());
  Crossbar b(9, 9, dev(), ag());
  Crossbar c(9, 9, dev(), ag());
  a.attach_pulse_counters(&pulses_a, &traced_a);
  a.attach_executor_counters(&seqs_a, &batches_a);
  b.attach_pulse_counters(&pulses_b, &traced_b);
  b.attach_executor_counters(&seqs_b, &batches_b);
  c.attach_pulse_counters(&pulses_c, &traced_c);
  c.attach_executor_counters(&seqs_c, &batches_c);

  const ExecReport ra = SimExecutor{}.execute(a, seq);
  const ExecReport rb = PerCellExecutor{}.execute(b, seq);
  const ExecReport rc = RemoteExecutor{RemoteConfig{}}.execute(c, seq);

  EXPECT_EQ(a.total_pulses(), b.total_pulses());
  EXPECT_EQ(a.total_pulses(), c.total_pulses());
  EXPECT_EQ(a.total_pulses(), ra.stats.pulses);
  EXPECT_EQ(pulses_a.value(), pulses_b.value());
  EXPECT_EQ(pulses_a.value(), pulses_c.value());
  EXPECT_EQ(pulses_a.value(), ra.stats.pulses);
  EXPECT_EQ(traced_a.value(), traced_b.value());
  EXPECT_EQ(traced_a.value(), traced_c.value());
  // A 9x9 array traces 1-of-9 cells, so some pulses must be traced.
  EXPECT_GT(traced_a.value(), 0u);
  EXPECT_LT(traced_a.value(), pulses_a.value());

  EXPECT_EQ(seqs_a.value(), 1u);
  EXPECT_EQ(seqs_b.value(), 1u);
  EXPECT_EQ(seqs_c.value(), 1u);
  EXPECT_EQ(batches_a.value(), batches_b.value());
  EXPECT_EQ(batches_a.value(), batches_c.value());
  EXPECT_EQ(batches_a.value(), ra.stats.batches);
  EXPECT_EQ(ra.stats.batches, rb.stats.batches);
  EXPECT_EQ(ra.stats.batches, rc.stats.batches);
}

TEST(Executors, EmptySequenceIsANoOp) {
  Crossbar xb(2, 2, dev(), ag());
  const std::string before = snapshot(xb);
  const ExecReport rep = SimExecutor{}.execute(xb, ProgramSequence{});
  EXPECT_TRUE(rep.results.empty());
  EXPECT_EQ(rep.stats.pulses, 0u);
  EXPECT_EQ(snapshot(xb), before);
  EXPECT_EQ(xb.total_pulses(), 0u);
}

TEST(Executors, BatchRejectsNonPulseOpsAndBadCoordinates) {
  Crossbar xb(2, 2, dev(), ag());
  const ProgramOp bad_kind = ProgramOp::barrier();
  double out = 0.0;
  EXPECT_THROW(xb.program_batch({&bad_kind, 1}, {&out, 1}), Error);
  const ProgramOp bad_row = ProgramOp::pulse(7, 0, 1e4);
  EXPECT_THROW(xb.program_batch({&bad_row, 1}, {&out, 1}), Error);
}

}  // namespace
}  // namespace xbarlife::xbar
