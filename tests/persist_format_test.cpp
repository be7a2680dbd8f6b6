// The byte format itself, not just round trips: CRC-32 against a bytewise
// reference, the exact bytes of each StateWriter field, the block reader's
// bounds, FNV-1a digests of a crossbar state and of an execute request and
// response, and committed checkpoint files that this build must still load
// and re-serialize byte for byte: tests/golden/hardware_state.ckpt
// (written by the field-by-field codec) and one train, lifetime and sweep
// snapshot each (*_tiny.ckpt, written by the build before the checkpoint
// protocol moved into core::CheckpointLoop).
//
// A change that moves one byte of the wire or checkpoint format fails
// here, and needs a new kWireVersion, kRequestVersion or checkpoint schema
// rather than new constants. Every checkpoint kind also fails closed: each
// truncation and each high-bit flip of a count or length field raises a
// typed error instead of restoring, or allocating, out of range.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/checkpoint_loop.hpp"
#include "core/experiment.hpp"
#include "core/lifetime.hpp"
#include "core/scenario_runner.hpp"
#include "core/sweep_checkpoint.hpp"
#include "core/trainer.hpp"
#include "nn/model_zoo.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tuning/hardware_network.hpp"
#include "tuning/online_tuner.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/program_sequence.hpp"
#include "xbar/remote.hpp"

namespace xbarlife {
namespace {

/// The textbook bytewise CRC-32 (reflected IEEE polynomial, bit by bit).
std::uint32_t crc32_reference(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1U) != 0 ? 0xEDB88320U ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng() & 0xffU);
  }
  return out;
}

std::string hex(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out += kHex[b >> 4];
    out += kHex[b & 0xfU];
  }
  return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every tail length of the 8-byte main loop, at every alignment.
  const std::string buf = random_bytes(1100 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::string_view s(buf.data() + offset, len);
      ASSERT_EQ(persist::crc32(s), crc32_reference(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnTwoMegabytes) {
  const std::string buf = random_bytes(2u << 20, 2);
  EXPECT_EQ(persist::crc32(buf), crc32_reference(buf));
}

TEST(StateIo, FieldsHaveExactLittleEndianBytes) {
  persist::StateWriter w;
  w.u8(0xab);
  w.u32(0x01020304U);
  w.u64(0x0102030405060708ULL);
  w.boolean(true);
  w.f32(1.0f);
  w.f64(-2.0);
  w.str("xy");
  EXPECT_EQ(hex(w.data()),
            "ab"
            "04030201"
            "0807060504030201"
            "01"
            "0000803f"
            "00000000000000c0"
            "0200000000000000"
            "7879");
}

TEST(StateIo, BlockReadsAreBoundsCheckedOnce) {
  persist::StateWriter w;
  char* p = w.extend(12);
  p = persist::put(p, std::uint32_t{7});
  persist::put(p, 0.5);
  w.str("abc");
  EXPECT_EQ(w.size(), 12u + 8u + 3u);

  persist::StateReader r(w.data());
  const char* q = r.take(12);
  std::uint32_t u = 0;
  double d = 0.0;
  persist::get(persist::get(q, u), d);
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(d, 0.5);
  const std::string_view view = r.str_view();
  EXPECT_EQ(view, "abc");
  // The view points into the payload: no copy was made.
  EXPECT_EQ(view.data(), w.data().data() + 20);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.take(1), CheckpointError);

  // A block or string longer than what is left fails before any read.
  persist::StateReader short_block(std::string_view(w.data()).substr(0, 11));
  EXPECT_THROW(short_block.take(12), CheckpointError);
  persist::StateWriter lying;
  lying.u64(~std::uint64_t{0});
  persist::StateReader huge(lying.data());
  EXPECT_THROW(huge.str_view(), CheckpointError);
}

// ---------------------------------------------------------------------------
// Pinned bytes.

aging::AgingParams crosstalk() {
  aging::AgingParams a;
  a.thermal_crosstalk = 0.05;
  return a;
}

xbar::ProgramSequence sequence(std::size_t rows, std::size_t cols,
                               double base) {
  xbar::SequenceBuilder b(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      b.pulse(r, c, base + 1e3 * static_cast<double>(r + c * rows));
    }
    b.verify(0, c);
    b.wait(c, 2.5);
  }
  return b.build();
}

/// A 5x4 array with write/read noise and stuck cells, aged by one
/// write-verify sequence.
std::unique_ptr<xbar::Crossbar> seeded_crossbar() {
  auto xb = std::make_unique<xbar::Crossbar>(5, 4, device::DeviceParams{},
                                             crosstalk());
  xbar::NonidealityConfig cfg;
  cfg.write_noise_sigma = 0.01;
  cfg.read_noise_sigma = 0.02;
  cfg.stuck_off_fraction = 0.1;
  xb->configure_nonideality(cfg, 77);
  xbar::SimExecutor{}.execute(*xb, sequence(5, 4, 1.5e4));
  return xb;
}

std::string state_of(const xbar::Crossbar& xb) {
  persist::StateWriter w;
  xb.save_state(w);
  return w.release();
}

TEST(StateFormat, PinnedDigestsMatchTheFieldByFieldCodec) {
  const std::unique_ptr<xbar::Crossbar> xb = seeded_crossbar();
  const std::string state = state_of(*xb);
  const std::string request = xbar::encode_execute_request(
      *xb, sequence(5, 4, 4.0e4), false, 7, 9);
  const std::string response = xbar::execute_request(request);
  EXPECT_EQ(state.size(), 1026u);
  EXPECT_EQ(state.size(), xb->state_bytes());
  EXPECT_EQ(fnv1a(state), 0xf188b92dae9b8fceULL);
  EXPECT_EQ(request.size(), 1788u);
  EXPECT_EQ(fnv1a(request), 0x8cbb7b9efc7a24e6ULL);
  EXPECT_EQ(response.size(), 1308u);
  EXPECT_EQ(fnv1a(response), 0xe3875a1171473cdfULL);
}

TEST(StateFormat, StateBytesIsTheExactSaveStateSize) {
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 1},
                                   {3, 4},
                                   {17, 9},
                                   {64, 64}}) {
    const xbar::Crossbar xb(rows, cols, device::DeviceParams{}, crosstalk());
    EXPECT_EQ(state_of(xb).size(), xb.state_bytes()) << rows << "x" << cols;
  }
}

/// A small network deployed with stuck cells, spare rows and read noise:
/// its snapshot covers every HardwareNetwork field (plans, reports,
/// bad-cell and pinned runs, row permutations, crossbars, targets,
/// parameters).
struct DeployedMlp {
  nn::Network net;
  std::unique_ptr<tuning::HardwareNetwork> hw;

  DeployedMlp()
      : net([] {
          Rng rng(21);
          return nn::make_mlp(6, {8}, 3, rng);
        }()) {
    tuning::HardwareFaultConfig faults;
    faults.nonideal.read_noise_sigma = 0.03;
    faults.nonideal.stuck_off_fraction = 0.1;
    faults.spare_rows = 2;
    faults.fault_seed = 9;
    hw = std::make_unique<tuning::HardwareNetwork>(
        net, device::DeviceParams{}, aging::AgingParams{}, faults);
    const std::size_t logical = hw->layer(0).logical_rows;
    std::vector<std::size_t> perm(logical);
    for (std::size_t r = 0; r < logical; ++r) {
      perm[r] = (r * 5 + 1) % (logical + faults.spare_rows);
    }
    hw->set_row_permutation(0, perm);
    hw->deploy(tuning::MappingPolicy::kFresh, 16);
  }
};

/// Checkpoints a HardwareNetwork's full state.
class HardwareSnapshot final : public persist::Checkpointable {
 public:
  explicit HardwareSnapshot(tuning::HardwareNetwork& hw) : hw_(hw) {}
  std::string kind() const override { return "hardware"; }
  std::uint64_t fingerprint() const override { return 0x5eed; }
  std::string serialize() const override {
    persist::StateWriter w;
    hw_.save_state(w);
    return w.release();
  }
  void restore(std::string_view payload) override {
    persist::StateReader r(payload);
    hw_.load_state(r);
    XB_CHECK(r.done(), "hardware snapshot has trailing bytes");
  }

 private:
  tuning::HardwareNetwork& hw_;
};

std::string golden_path(const std::string& name) {
  return std::string(XBARLIFE_GOLDEN_DIR) + "/" + name;
}

/// A committed checkpoint file's payload (the bytes after the header).
std::string golden_payload(const std::string& name) {
  std::string file;
  std::FILE* f = std::fopen(golden_path(name).c_str(), "rb");
  if (f == nullptr) {
    throw IoError("cannot open " + golden_path(name));
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    file.append(buf, n);
  }
  std::fclose(f);
  return file.substr(file.find('\n') + 1);
}

TEST(StateFormat, LoadsACheckpointWrittenByTheFieldByFieldCodec) {
  const std::string path = golden_path("hardware_state.ckpt");
  const std::string payload = golden_payload("hardware_state.ckpt");

  // The same network, built and deployed today, serializes to exactly
  // the committed payload...
  DeployedMlp fresh;
  EXPECT_EQ(HardwareSnapshot(*fresh.hw).serialize(), payload);

  // ...and a network whose state is scrambled by further programming
  // restores from the committed file (header, CRC and payload) to the
  // same bytes.
  DeployedMlp other;
  other.hw->deploy(tuning::MappingPolicy::kFresh, 8);
  HardwareSnapshot target(*other.hw);
  ASSERT_NE(target.serialize(), payload);
  persist::CheckpointStore store(path);
  const auto info = store.load(target);
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->fallback_used);
  EXPECT_EQ(target.serialize(), payload);
}

// --- train, lifetime and sweep snapshots ---------------------------------

/// core_checkpoint_resume_test's tiny_config: the *_tiny.ckpt goldens are
/// its final snapshots under the scalar kernel with a trace attached (so
/// their trace trailers are not empty): a skewed training, an ST+AT
/// lifetime and the 6-job sweep of seed 33 in chunks of 2.
core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.name = "resume-tiny";
  cfg.model = core::ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 24;
  cfg.dataset.test_per_class = 6;
  cfg.dataset.noise = 0.1;
  cfg.train_config.epochs = 4;
  cfg.train_config.batch = 16;
  cfg.train_config.learning_rate = 0.05;
  cfg.lifetime.max_sessions = 4;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

/// Walks a payload's layout and records where its count and length
/// fields start.
class FieldWalker {
 public:
  explicit FieldWalker(std::string_view payload)
      : r_(payload), size_(payload.size()) {}

  std::uint64_t count() {
    fields.push_back(size_ - r_.remaining());
    return r_.u64();
  }
  void str() {
    fields.push_back(size_ - r_.remaining());
    r_.str_view();
  }
  void skip(std::size_t n) { r_.take(n); }
  bool boolean() { return r_.boolean(); }
  /// The trace trailer: the next seq, then the buffered lines.
  void trailer() {
    skip(8);
    for (std::uint64_t i = count(); i > 0; --i) {
      str();
    }
  }
  bool done() const { return r_.done(); }

  std::vector<std::size_t> fields;

 private:
  persist::StateReader r_;
  std::size_t size_;
};

/// A skewed training's state.
struct TrainKind {
  core::ExperimentConfig cfg = tiny_config();
  data::TrainTest data = data::make_synthetic(cfg.dataset);
  nn::Network net = [this] {
    Rng rng(cfg.seed);
    return core::build_model(cfg, rng);
  }();
  nn::SkewedL2Regularizer reg{cfg.skew.lambda1, cfg.skew.lambda2,
                              cfg.skew.omega_factor};
  core::Trainer trainer{net, data, cfg.train_config, &reg};
  core::CheckpointLoop loop{trainer, nullptr, {}};

  static constexpr const char* kGolden = "train_tiny.ckpt";

  void walk(FieldWalker& w) const {
    w.skip(8);  // next epoch
    for (std::uint64_t i = w.count(); i > 0; --i) {
      w.skip(8 + 4 * 8);  // epoch, loss, penalty, accuracies
    }
    w.skip(8 + persist::kRngStateBytes);  // learning rate, shuffle stream
    for (std::uint64_t p = w.count(); p > 0; --p) {
      const std::uint64_t numel = w.count();
      w.skip(4 * numel);
      if (w.boolean()) {
        w.skip(4 * numel);  // velocity
      }
    }
    if (w.boolean()) {
      w.skip(9 * w.count());  // frozen omegas
    }
    w.trailer();
  }
};

/// An ST+AT lifetime's state, on the network the golden run trained (its
/// tuning target, part of the fingerprint, comes from the scalar
/// kernel's training).
struct LifetimeKind {
  core::ExperimentConfig cfg = tiny_config();
  data::TrainTest data = data::make_synthetic(cfg.dataset);
  core::TrainedModel tm = [this] {
    const std::string kernel = kernels::kernel_name();
    kernels::set_kernel("scalar");
    core::TrainedModel out = core::train_model(cfg, data, true);
    kernels::set_kernel(kernel);
    return out;
  }();
  core::LifetimeConfig lc = [this] {
    core::LifetimeConfig out = cfg.lifetime;
    out.tuning.target_accuracy =
        cfg.target_accuracy_fraction * tm.history.final_test_accuracy;
    return out;
  }();
  tuning::HardwareNetwork hw{tm.network, cfg.device, cfg.aging, cfg.faults};
  tuning::OnlineTuner tuner{lc.tuning};
  core::LifetimeState state{lc, hw, tuner,
                            tuning::MappingPolicy::kAgingAware};
  core::CheckpointLoop loop{state, nullptr, {}};

  static constexpr const char* kGolden = "lifetime_tiny.ckpt";

  void walk(FieldWalker& w) const {
    w.skip(8);  // next session
    for (std::uint64_t s = w.count(); s > 0; --s) {
      w.skip(3 * 8 + 2 + 2 * 8 + 8);  // through pulses_total
      w.skip(8 * w.count());          // layer_mean_aged_rmax
      w.skip(8 * w.count());          // layer_mean_usable_levels
      w.skip(2);                      // resilience_active, degraded
      for (std::uint64_t r = w.count(); r > 0; --r) {
        w.str();  // rescue rung
      }
      w.skip(3 * 8);  // cell census
    }
    // applications, died, drift stream, tuner cursor
    w.skip(8 + 1 + persist::kRngStateBytes + 8);
    // The HardwareNetwork block (see HardwareNetwork::save_state).
    w.count();  // layers
    for (std::size_t li = 0; li < hw.layer_count(); ++li) {
      if (w.boolean()) {
        w.skip(6 * 8);  // plan
      }
      w.skip(5 * 8);             // last mapping report
      w.skip(w.count());         // stuck cells
      w.skip(4 * w.count());     // pinned conductances
      w.skip(8 * w.count());     // row permutation
      w.count();                 // crossbar rows
      w.count();                 // crossbar columns
      w.skip(hw.layer(li).xbar->state_bytes() - 16);
    }
    for (std::uint64_t t = w.count(); t > 0; --t) {
      w.skip(4 * w.count());  // target tensor
    }
    for (std::uint64_t p = w.count(); p > 0; --p) {
      w.skip(4 * w.count());  // parameter tensor
    }
    w.trailer();
  }
};

/// The 6-job sweep's state (direct trace mode: no trailer).
struct SweepKind {
  core::ScenarioRunner runner{33};
  std::vector<core::ScenarioJob> jobs = core::ScenarioRunner::cross(
      tiny_config(),
      {core::Scenario::kTT, core::Scenario::kSTT, core::Scenario::kSTAT}, 2);
  std::vector<core::SweepJobResult> rows =
      std::vector<core::SweepJobResult>(jobs.size());
  core::SweepState state{runner, jobs, "sweep", rows};
  core::CheckpointLoop loop{state, nullptr, {},
                            core::CheckpointLoop::Trace::kDirect};

  static constexpr const char* kGolden = "sweep_tiny.ckpt";

  void walk(FieldWalker& w) const {
    for (std::uint64_t j = w.count(); j > 0; --j) {
      if (!w.boolean()) {
        continue;
      }
      w.str();  // entry JSON
      w.skip(1 + 2 * 8 + 2 * 8 + 2 * 8 + 3);  // through timed_out
      w.str();                                // error
      for (std::uint64_t l = w.count(); l > 0; --l) {
        w.str();  // trace line
      }
    }
  }
};

/// Loads the kind's golden file through a CheckpointStore (its header's
/// kind and fingerprint must match this build's state) and re-serializes
/// the payload.
template <class Kind>
void expect_golden_reserializes() {
  Kind kind;
  const std::string payload = golden_payload(Kind::kGolden);
  persist::CheckpointStore store(golden_path(Kind::kGolden));
  const auto info = store.load(kind.loop);
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->fallback_used);
  EXPECT_EQ(kind.loop.serialize(), payload);
}

/// Restores every truncation of the kind's golden payload, and the payload
/// with a high bit flipped in each count or length field.
template <class Kind>
void expect_corruption_fails_closed() {
  Kind kind;
  const std::string payload = golden_payload(Kind::kGolden);
  FieldWalker walker(payload);
  kind.walk(walker);
  ASSERT_TRUE(walker.done()) << "the walk does not cover the payload";
  ASSERT_FALSE(walker.fields.empty());

  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(kind.loop.restore(std::string_view(payload).substr(0, len)),
                 Error)
        << "truncated to " << len;
  }
  // A high bit set in a count or length asks for an element count (or a
  // byte length) no payload can back.
  for (const std::size_t at : walker.fields) {
    for (const int bit : {32, 47, 63}) {
      std::string bad = payload;
      bad[at + static_cast<std::size_t>(bit) / 8] ^=
          static_cast<char>(1 << (bit % 8));
      EXPECT_THROW(kind.loop.restore(bad), Error)
          << "bit " << bit << " of the field at " << at;
    }
  }
}

TEST(CheckpointKinds, TrainGoldenReserializesByteForByte) {
  expect_golden_reserializes<TrainKind>();
}

TEST(CheckpointKinds, LifetimeGoldenReserializesByteForByte) {
  expect_golden_reserializes<LifetimeKind>();
}

TEST(CheckpointKinds, SweepGoldenReserializesByteForByte) {
  expect_golden_reserializes<SweepKind>();
}

TEST(CheckpointKinds, TrainCorruptionFailsClosed) {
  expect_corruption_fails_closed<TrainKind>();
}

TEST(CheckpointKinds, LifetimeCorruptionFailsClosed) {
  expect_corruption_fails_closed<LifetimeKind>();
}

TEST(CheckpointKinds, SweepCorruptionFailsClosed) {
  expect_corruption_fails_closed<SweepKind>();
}

}  // namespace
}  // namespace xbarlife
