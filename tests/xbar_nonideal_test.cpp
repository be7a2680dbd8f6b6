#include "xbar/nonideal.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace xbarlife::xbar {
namespace {

TEST(NonidealityConfig, Validation) {
  NonidealityConfig c;
  EXPECT_NO_THROW(c.validate());
  c.write_noise_sigma = -0.1;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = NonidealityConfig{};
  c.stuck_off_fraction = 0.7;
  c.stuck_on_fraction = 0.5;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(WriteNoise, ZeroSigmaIsExact) {
  NonidealityConfig c;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(apply_write_noise(c, 5e-5, rng), 5e-5);
}

TEST(WriteNoise, PerturbsWithConfiguredSpread) {
  NonidealityConfig c;
  c.write_noise_sigma = 0.1;
  Rng rng(2);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) {
    rs.add(apply_write_noise(c, 1e-5, rng) / 1e-5);
  }
  EXPECT_NEAR(rs.mean(), 1.0, 0.01);
  EXPECT_NEAR(rs.stddev(), 0.1, 0.01);
  EXPECT_GT(rs.min(), 0.0);  // never non-physical
}

TEST(ReadNoise, IndependentSamplesDiffer) {
  NonidealityConfig c;
  c.read_noise_sigma = 0.05;
  Rng rng(3);
  const double a = apply_read_noise(c, 1e-5, rng);
  const double b = apply_read_noise(c, 1e-5, rng);
  EXPECT_NE(a, b);
}

TEST(FaultMap, DeterministicAndBounded) {
  NonidealityConfig c;
  c.stuck_off_fraction = 0.05;
  c.stuck_on_fraction = 0.02;
  FaultMap a(40, 40, c, 7);
  FaultMap b(40, 40, c, 7);
  std::size_t off = 0;
  std::size_t on = 0;
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t col = 0; col < 40; ++col) {
      EXPECT_EQ(a.at(r, col), b.at(r, col));
      off += a.at(r, col) == FaultMap::Fault::kStuckOff ? 1u : 0u;
      on += a.at(r, col) == FaultMap::Fault::kStuckOn ? 1u : 0u;
    }
  }
  EXPECT_NEAR(static_cast<double>(off) / 1600.0, 0.05, 0.02);
  EXPECT_NEAR(static_cast<double>(on) / 1600.0, 0.02, 0.015);
  EXPECT_EQ(a.fault_count(), off + on);
}

TEST(FaultMap, CleanConfigHasNoFaults) {
  FaultMap m(10, 10, {}, 1);
  EXPECT_EQ(m.fault_count(), 0u);
  EXPECT_EQ(m.at(5, 5), FaultMap::Fault::kNone);
}

TEST(IrDrop, AttenuatesFarCellsMore) {
  NonidealityConfig c;
  c.line_resistance = 5.0;
  const double near = ir_drop_conductance(c, 1e-4, 0, 0);
  const double far = ir_drop_conductance(c, 1e-4, 63, 63);
  EXPECT_LT(near, 1e-4);
  EXPECT_LT(far, near);
  // Low conductances barely notice the wire.
  EXPECT_NEAR(ir_drop_conductance(c, 1e-6, 63, 63), 1e-6, 1e-9);
}

TEST(IrDrop, ZeroLineResistanceIsIdentity) {
  NonidealityConfig c;
  EXPECT_DOUBLE_EQ(ir_drop_conductance(c, 1e-4, 63, 63), 1e-4);
}

}  // namespace
}  // namespace xbarlife::xbar
