// xbarlife.wire.v1: the framed message protocol remote program execution
// speaks over a Transport.
//
// Every message travels as one frame:
//
//   offset  size  field
//        0     4  magic "XBW1"
//        4     1  protocol version (1)
//        5     1  message type (MsgType)
//        6     2  flags (0, reserved — little-endian)
//        8     8  sequence id (little-endian)
//       16     4  payload length (little-endian, <= kMaxFramePayload)
//       20     4  CRC32 of the payload (IEEE, persist::crc32)
//       24     —  payload bytes
//
// Payloads are persist::StateWriter-encoded (little-endian, bit-cast
// floats) — the same wire format checkpoints use, so ProgramSequences and
// crossbar snapshots ship verbatim. The sequence id is the idempotent
// replay key: a client retries a request under the SAME id until it sees a
// response carrying that id, and discards any stale frame (a duplicated or
// delayed response from an earlier attempt) whose id does not match.
//
// Integrity failures — bad magic, unknown version or type, an oversized
// length prefix, a CRC mismatch — throw WireError. A framing error means
// stream position is unreliable, so WireError derives TransportError:
// callers treat it as a broken connection and reconnect.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/transport.hpp"

namespace xbarlife::obs {
class Registry;
}  // namespace xbarlife::obs

namespace xbarlife::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 24;
/// Upper bound on a payload; caps the allocation a hostile or corrupt
/// length prefix can demand. Generous for crossbar snapshots (a 1024x1024
/// array serializes to ~40 MB), yet far below address-space exhaustion.
inline constexpr std::uint32_t kMaxFramePayload = 256u << 20;

/// The stream violated the framing contract; the connection must be
/// re-established.
class WireError : public TransportError {
 public:
  explicit WireError(const std::string& what) : TransportError(what) {}
};

enum class MsgType : std::uint8_t {
  kHello = 1,          ///< client -> worker: version handshake
  kHelloAck = 2,       ///< worker -> client
  kExecute = 3,        ///< client -> worker: ExecuteRequest payload
  kExecuteResult = 4,  ///< worker -> client: ExecuteResponse payload
  kHeartbeat = 5,      ///< client -> worker: liveness probe
  kHeartbeatAck = 6,   ///< worker -> client
  kError = 7,          ///< worker -> client: str(message) payload
  kShutdown = 8,       ///< client -> worker: stop serving after this frame
  kStats = 9,          ///< client -> worker: request a stats snapshot
  kStatsAck = 10,      ///< worker -> client: xbarlife.workerstats.v1 payload
  /// worker -> client: a kExecuteResult served from the worker's one-deep
  /// replay cache (same payload bytes, distinct type so the client can
  /// account replays separately from fresh work).
  kExecuteReplay = 11,
};

const char* to_string(MsgType type);

/// No-op, kept for its only caller, bench_e2e/xbarlife_e2e.cpp.
void set_wire_metrics(obs::Registry* registry);

struct Frame {
  MsgType type = MsgType::kError;
  std::uint64_t seq_id = 0;
  std::string payload;
};

/// Encodes one complete frame (header + payload) as a byte string.
std::string encode_frame(MsgType type, std::uint64_t seq_id,
                         std::string_view payload);

/// Encodes and sends one frame as a single Transport::send() call, so
/// fault injection operates on whole frames. With `metrics` set, the
/// frame's size lands in its bucketed "net.frame_bytes_out" histogram
/// (created on first use, so runs that never touch the wire stay
/// byte-identical).
void write_frame(Transport& t, MsgType type, std::uint64_t seq_id,
                 std::string_view payload = {},
                 obs::Registry* metrics = nullptr);

/// Reads one frame within `timeout`. Throws TransportTimeout (stream
/// position preserved — see Transport::recv_exact), TransportError, or
/// WireError on an integrity failure. With `metrics` set, a good frame's
/// size lands in "net.frame_bytes_in" and a CRC mismatch bumps the
/// "net.crc_failures" counter.
Frame read_frame(Transport& t, std::chrono::milliseconds timeout,
                 obs::Registry* metrics = nullptr);

}  // namespace xbarlife::net
