// Crash-safe snapshot store: CRC32 known answer, wire-format round trip,
// atomic generation rotation, corruption fallback to the .bak slot, and
// rejection of foreign snapshots.
#include "persist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "persist/state_io.hpp"
#include "xbar/program_sequence.hpp"

namespace xbarlife::persist {
namespace {

/// Minimal checkpointable: a counter + note round-tripped via the wire
/// format. `salt` feeds the fingerprint so tests can fake "a different
/// configuration" without a second type.
struct Counter : Checkpointable {
  std::uint64_t value = 0;
  std::string note = "fresh";
  std::string kind_tag = "counter";
  std::uint64_t salt = 1;

  std::string kind() const override { return kind_tag; }
  std::uint64_t fingerprint() const override {
    return Fingerprint().add(std::string_view{"counter"}).add(salt).value();
  }
  std::string serialize() const override {
    StateWriter w;
    w.u64(value);
    w.str(note);
    return w.data();
  }
  void restore(std::string_view payload) override {
    StateReader r(payload);
    value = r.u64();
    note = r.str();
    if (!r.done()) {
      throw CheckpointError("counter snapshot has trailing bytes");
    }
  }
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  std::remove((path + ".tmp").c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Writes generation 1 (value 10) and generation 2 (value 20): the
/// primary holds gen 2 and the .bak slot gen 1.
void write_two_generations(CheckpointStore& store) {
  Counter c;
  c.value = 10;
  c.note = "gen-one";
  store.save(c);
  c.value = 20;
  c.note = "gen-two";
  store.save(c);
}

TEST(Crc32, MatchesKnownAnswer) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32(""), 0U);
  EXPECT_NE(crc32("xbarlife"), crc32("xbarlifE"));
}

TEST(StateIo, RoundTripsBitIdentically) {
  StateWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefU);
  w.u64(0x0123456789abcdefULL);
  w.boolean(true);
  w.f32(-0.0f);
  w.f64(1.0 / 3.0);
  w.str("length-prefixed \"text\"\n");
  Rng rng(99);
  (void)rng.gaussian();  // populate the Box-Muller cache
  write_rng_state(w, rng);

  StateReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefU);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(std::signbit(r.f32()));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "length-prefixed \"text\"\n");
  Rng restored(0);
  read_rng_state(r, restored);
  EXPECT_TRUE(r.done());
  // The restored stream continues exactly where the original stands.
  EXPECT_EQ(restored.gaussian(), rng.gaussian());
  EXPECT_EQ(restored(), rng());
}

TEST(StateIo, UnderflowIsCheckpointError) {
  StateWriter w;
  w.u32(7);
  StateReader r(w.data());
  EXPECT_EQ(r.u32(), 7U);
  EXPECT_THROW(r.u64(), CheckpointError);

  // A truncated string length-prefix must not read past the end either.
  StateWriter w2;
  w2.u64(1000);  // claims a 1000-byte string that is not there
  StateReader r2(w2.data());
  EXPECT_THROW(r2.str(), CheckpointError);
}

TEST(StateIo, ArrayCountRejectsCountsTheBytesCannotBack) {
  // A well-formed prefix passes through.
  {
    StateWriter w;
    w.u64(3);
    w.f64(1.0);
    w.f64(2.0);
    w.f64(3.0);
    StateReader r(w.data());
    EXPECT_EQ(r.array_count(8), 3u);
  }
  // A corrupt (or hostile) count larger than the remaining bytes could
  // ever serialize must throw instead of driving a giant reserve().
  {
    StateWriter w;
    w.u64(0xffffffffffffffffULL);
    StateReader r(w.data());
    EXPECT_THROW(r.array_count(8), CheckpointError);
  }
  {
    StateWriter w;
    w.u64(10);  // claims 10 elements, only 9 payload bytes follow
    for (int i = 0; i < 9; ++i) {
      w.u8(0);
    }
    StateReader r(w.data());
    EXPECT_THROW(r.array_count(1), CheckpointError);
  }
  // min_bytes_per_element == 0 is treated as 1 (count <= remaining).
  {
    StateWriter w;
    w.u64(2);
    w.u8(0);
    w.u8(0);
    StateReader r(w.data());
    EXPECT_EQ(r.array_count(0), 2u);
  }
}

// Corruption fuzz for the count-prefixed load paths (satellite of the
// remote-executor work: the worker feeds network bytes straight into
// these readers). Every single-byte flip and every truncation of a real
// ProgramSequence payload must either restore cleanly or throw a typed
// xbarlife::Error — never crash, loop, or attempt an absurd allocation.
TEST(StateIo, ProgramSequenceCorruptionFuzzFailsClosed) {
  xbar::SequenceBuilder b(4, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t r = 0; r < 4; ++r) {
      b.pulse(r, c, 1e4 + 500.0 * static_cast<double>(r + c));
    }
    b.pulse(0, c, 2e4);
  }
  StateWriter w;
  b.build().save_state(w);
  const std::string good = w.data();
  {
    StateReader r(good);
    (void)xbar::ProgramSequence::load_state(r);  // baseline restores
  }

  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned mask : {0x01U, 0x80U, 0xffU}) {
      std::string mutated = good;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ mask);
      try {
        StateReader r(mutated);
        (void)xbar::ProgramSequence::load_state(r);
        // Some flips land in value bytes and still parse — fine; the
        // contract is only that failures are typed and bounded.
      } catch (const Error&) {
      }
    }
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    try {
      // StateReader keeps a view: the prefix must outlive it.
      const std::string prefix = good.substr(0, len);
      StateReader r(prefix);
      (void)xbar::ProgramSequence::load_state(r);
    } catch (const Error&) {
    }
  }
}

TEST(CheckpointStore, MissingSnapshotIsFreshStart) {
  const std::string path = temp_path("persist_fresh.ckpt");
  remove_generations(path);
  CheckpointStore store(path);
  Counter c;
  EXPECT_FALSE(store.load(c).has_value());
  EXPECT_EQ(c.value, 0U);
  EXPECT_EQ(store.generation(), 0U);
}

TEST(CheckpointStore, SaveLoadRoundTripsAndRotatesGenerations) {
  const std::string path = temp_path("persist_roundtrip.ckpt");
  remove_generations(path);
  CheckpointStore store(path);
  write_two_generations(store);
  EXPECT_EQ(store.generation(), 2U);

  // Both generations exist on disk: gen 2 primary, gen 1 fallback.
  EXPECT_FALSE(read_file(path).empty());
  EXPECT_FALSE(read_file(path + ".bak").empty());

  CheckpointStore reopened(path);
  Counter c;
  const auto info = reopened.load(c);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generation, 2U);
  EXPECT_FALSE(info->fallback_used);
  EXPECT_EQ(c.value, 20U);
  EXPECT_EQ(c.note, "gen-two");

  // Saving after a load continues the generation sequence.
  reopened.save(c);
  EXPECT_EQ(reopened.generation(), 3U);
  remove_generations(path);
}

TEST(CheckpointStore, CorruptPrimaryFallsBackToLastGoodGeneration) {
  const std::string path = temp_path("persist_fallback.ckpt");
  // Three ways a crash can mangle the newest snapshot; each must fall
  // back to the .bak generation.
  enum class Corruption { kTruncate, kBitFlip, kZeroLength };
  for (const Corruption mode :
       {Corruption::kTruncate, Corruption::kBitFlip,
        Corruption::kZeroLength}) {
    remove_generations(path);
    CheckpointStore store(path);
    write_two_generations(store);

    std::string bytes = read_file(path);
    ASSERT_GT(bytes.size(), 8U);
    switch (mode) {
      case Corruption::kTruncate:
        bytes.resize(bytes.size() - 4);
        break;
      case Corruption::kBitFlip:
        bytes.back() = static_cast<char>(bytes.back() ^ 0x10);
        break;
      case Corruption::kZeroLength:
        bytes.clear();
        break;
    }
    write_file(path, bytes);

    CheckpointStore reopened(path);
    Counter c;
    const auto info = reopened.load(c);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->fallback_used);
    EXPECT_EQ(info->generation, 1U);
    EXPECT_EQ(c.value, 10U);
    EXPECT_EQ(c.note, "gen-one");
  }
  remove_generations(path);
}

TEST(CheckpointStore, AllGenerationsCorruptIsCheckpointError) {
  const std::string path = temp_path("persist_corrupt.ckpt");
  remove_generations(path);
  CheckpointStore store(path);
  write_two_generations(store);
  // Flip a payload byte in both generations: no valid state remains, and
  // restoring garbage silently would be worse than failing loudly.
  for (const std::string& file : {path, path + ".bak"}) {
    std::string bytes = read_file(file);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    write_file(file, bytes);
  }
  CheckpointStore reopened(path);
  Counter c;
  EXPECT_THROW(reopened.load(c), CheckpointError);

  // Corrupt primary with no fallback at all: same verdict.
  remove_generations(path);
  CheckpointStore fresh(path);
  Counter seed;
  seed.value = 5;
  fresh.save(seed);
  std::string bytes = read_file(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  write_file(path, bytes);
  CheckpointStore again(path);
  EXPECT_THROW(again.load(c), CheckpointError);
  remove_generations(path);
}

TEST(CheckpointStore, ForeignSnapshotsAreRejectedNotRestored) {
  const std::string path = temp_path("persist_foreign.ckpt");
  remove_generations(path);
  CheckpointStore store(path);
  Counter c;
  c.value = 42;
  store.save(c);

  const auto expect_plain_io_error = [&](Counter& target) {
    CheckpointStore reopened(path);
    try {
      reopened.load(target);
      FAIL() << "foreign snapshot was restored";
    } catch (const CheckpointError&) {
      FAIL() << "foreign snapshot reported as corrupt";
    } catch (const IoError&) {
      // expected: foreign, not corrupt — the .bak would be just as
      // foreign, so no fallback is attempted.
    }
  };

  // Same file, different kind.
  Counter other_kind;
  other_kind.kind_tag = "other";
  expect_plain_io_error(other_kind);

  // Same kind, different configuration fingerprint.
  Counter other_config;
  other_config.salt = 2;
  expect_plain_io_error(other_config);

  // A snapshot from a different schema version entirely.
  write_file(path,
             "{\"checkpoint\":\"xbarlife.faults.v1\",\"campaign_seed\":9}\n");
  Counter same;
  expect_plain_io_error(same);
  remove_generations(path);
}

}  // namespace
}  // namespace xbarlife::persist
