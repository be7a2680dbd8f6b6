// The byte format itself, not just round trips: CRC-32 against a bytewise
// reference, the exact bytes of each StateWriter field, the block reader's
// bounds, FNV-1a digests of a crossbar state and of an execute request and
// response, and a checkpoint file written by the field-by-field codec
// (tests/golden/hardware_state.ckpt) that this build must still load and
// re-serialize byte for byte.
//
// The digests and the checkpoint file were produced by the codec that
// wrote every field with its own loop; a change that moves one byte of
// the wire or checkpoint format fails here, and needs a new kWireVersion,
// kRequestVersion or checkpoint schema rather than new constants.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"
#include "tuning/hardware_network.hpp"
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

TEST(StateFormat, LoadsACheckpointWrittenByTheFieldByFieldCodec) {
  const std::string path =
      std::string(XBARLIFE_GOLDEN_DIR) + "/hardware_state.ckpt";
  std::string file;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      file.append(buf, n);
    }
    std::fclose(f);
  }
  const std::string payload = file.substr(file.find('\n') + 1);

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

}  // namespace
}  // namespace xbarlife
