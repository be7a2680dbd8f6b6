#include "persist/checkpoint.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace xbarlife::persist {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: row 0 is the
/// classic bytewise table, row k advances a byte's CRC through k more
/// zero bytes, so eight bytes fold in with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const CrcTables& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffU] ^ t[6][(lo >> 8) & 0xffU] ^
          t[5][(lo >> 16) & 0xffU] ^ t[4][lo >> 24] ^ t[3][hi & 0xffU] ^
          t[2][(hi >> 8) & 0xffU] ^ t[1][(hi >> 16) & 0xffU] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xffU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

Fingerprint& Fingerprint::add(std::string_view bytes) {
  // Length-prefix the bytes so add("ab").add("c") != add("a").add("bc").
  add(static_cast<std::uint64_t>(bytes.size()));
  for (const char ch : bytes) {
    hash_ ^= static_cast<unsigned char>(ch);
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Fingerprint& Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Fingerprint& Fingerprint::add(double v) {
  return add(std::bit_cast<std::uint64_t>(v));
}

std::string fingerprint_hex(std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[value & 0xfU];
    value >>= 4;
  }
  return out;
}

std::string Fingerprint::hex() const { return fingerprint_hex(hash_); }

namespace {

/// Result of reading one snapshot file without touching the target.
struct Snapshot {
  enum class Status {
    kNotFound,  ///< file does not exist
    kCorrupt,   ///< unreadable / truncated / checksum mismatch
    kForeign,   ///< valid header, but belongs to a different run
    kOk,
  };
  Status status = Status::kNotFound;
  std::string reason;
  std::uint64_t generation = 0;
  std::string payload;
};

/// Extracts the JSON string following `"key":"` in `line`; headers are
/// written by this module, so a hand scan is sufficient (the repo has no
/// JSON parser by design).
std::optional<std::string> scan_str(const std::string& line,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  const std::size_t start = pos + needle.size();
  const std::size_t stop = line.find('"', start);
  if (stop == std::string::npos) {
    return std::nullopt;
  }
  return line.substr(start, stop - start);
}

std::optional<std::uint64_t> scan_u64(const std::string& line,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  std::size_t i = pos + needle.size();
  std::uint64_t value = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
    any = true;
  }
  if (!any) {
    return std::nullopt;
  }
  return value;
}

Snapshot read_snapshot(const std::string& file, const std::string& kind,
                       const std::string& fingerprint) {
  Snapshot snap;
  std::ifstream in(file, std::ios::binary);
  if (!in.is_open()) {
    return snap;  // kNotFound
  }
  snap.status = Snapshot::Status::kCorrupt;
  std::string header;
  if (!std::getline(in, header) || header.empty()) {
    snap.reason = "empty or headerless snapshot: " + file;
    return snap;
  }
  const auto schema = scan_str(header, "checkpoint");
  if (!schema.has_value()) {
    snap.reason = "snapshot header is not a checkpoint header: " + file;
    return snap;
  }
  // A parseable header from a different schema/kind/run: foreign, not
  // corrupt — falling back would resume the wrong run.
  if (*schema != kCheckpointSchema) {
    snap.status = Snapshot::Status::kForeign;
    snap.reason = "unsupported checkpoint schema '" + *schema +
                  "': " + file;
    return snap;
  }
  const auto file_kind = scan_str(header, "kind");
  const auto file_fp = scan_str(header, "fingerprint");
  const auto generation = scan_u64(header, "generation");
  const auto payload_bytes = scan_u64(header, "payload_bytes");
  const auto payload_crc = scan_u64(header, "payload_crc32");
  if (!file_kind || !file_fp || !generation || !payload_bytes ||
      !payload_crc) {
    snap.reason = "snapshot header is missing fields: " + file;
    return snap;
  }
  if (*file_kind != kind) {
    snap.status = Snapshot::Status::kForeign;
    snap.reason = "checkpoint kind '" + *file_kind +
                  "' does not match this command ('" + kind +
                  "'): " + file;
    return snap;
  }
  if (*file_fp != fingerprint) {
    snap.status = Snapshot::Status::kForeign;
    snap.reason =
        "checkpoint fingerprint " + *file_fp +
        " belongs to a different configuration (expected " + fingerprint +
        "): " + file;
    return snap;
  }
  snap.payload.resize(*payload_bytes);
  in.read(snap.payload.data(),
          static_cast<std::streamsize>(*payload_bytes));
  if (static_cast<std::uint64_t>(in.gcount()) != *payload_bytes) {
    snap.reason = "snapshot payload truncated (" +
                  std::to_string(in.gcount()) + " of " +
                  std::to_string(*payload_bytes) + " bytes): " + file;
    return snap;
  }
  if (crc32(snap.payload) != *payload_crc) {
    snap.reason = "snapshot payload checksum mismatch: " + file;
    return snap;
  }
  snap.status = Snapshot::Status::kOk;
  snap.generation = *generation;
  return snap;
}

bool file_exists(const std::string& file) {
  return std::ifstream(file).is_open();
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw IoError("cannot write file: " + tmp);
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out.good()) {
      throw IoError("file write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot move file into place: " + path);
  }
}

CheckpointStore::CheckpointStore(std::string path)
    : path_(std::move(path)) {
  if (path_.empty()) {
    throw InvalidArgument("checkpoint path must be non-empty");
  }
}

void CheckpointStore::save(const Checkpointable& target) {
  const std::string payload = target.serialize();
  const std::uint64_t generation = generation_ + 1;
  std::ostringstream header;
  header << "{\"checkpoint\":\"" << kCheckpointSchema << "\",\"kind\":\""
         << target.kind() << "\",\"fingerprint\":\""
         << fingerprint_hex(target.fingerprint())
         << "\",\"generation\":" << generation
         << ",\"payload_bytes\":" << payload.size()
         << ",\"payload_crc32\":" << crc32(payload) << "}\n";

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw IoError("cannot write checkpoint: " + tmp);
    }
    const std::string head = header.str();
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out.good()) {
      throw IoError("checkpoint write failed: " + tmp);
    }
  }
  // Rotate the previous snapshot into the fallback slot, then move the
  // new one into place. Either rename is atomic, so a crash anywhere in
  // this sequence leaves at least one valid generation on disk.
  if (file_exists(path_)) {
    std::rename(path_.c_str(), fallback_path().c_str());
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw IoError("cannot move checkpoint into place: " + path_);
  }
  generation_ = generation;
}

std::optional<CheckpointStore::SnapshotInfo> CheckpointStore::load(
    Checkpointable& target) {
  const std::string kind = target.kind();
  const std::string fp = fingerprint_hex(target.fingerprint());

  const Snapshot primary = read_snapshot(path_, kind, fp);
  if (primary.status == Snapshot::Status::kForeign) {
    throw IoError(primary.reason);
  }
  if (primary.status == Snapshot::Status::kOk) {
    target.restore(primary.payload);
    generation_ = primary.generation;
    return SnapshotInfo{primary.generation, /*fallback_used=*/false};
  }

  const Snapshot fallback = read_snapshot(fallback_path(), kind, fp);
  if (primary.status == Snapshot::Status::kNotFound &&
      fallback.status == Snapshot::Status::kNotFound) {
    return std::nullopt;  // fresh start
  }
  if (fallback.status == Snapshot::Status::kOk) {
    target.restore(fallback.payload);
    generation_ = fallback.generation;
    return SnapshotInfo{fallback.generation, /*fallback_used=*/true};
  }
  if (fallback.status == Snapshot::Status::kForeign) {
    throw IoError(fallback.reason);
  }
  std::string detail = primary.status == Snapshot::Status::kNotFound
                           ? fallback.reason
                           : primary.reason;
  if (fallback.status == Snapshot::Status::kNotFound) {
    detail += "; no fallback generation exists";
  } else if (primary.status != Snapshot::Status::kNotFound) {
    detail += "; fallback also invalid (" + fallback.reason + ")";
  }
  throw CheckpointError("checkpoint corrupted with no valid fallback: " +
                        detail);
}

}  // namespace xbarlife::persist
