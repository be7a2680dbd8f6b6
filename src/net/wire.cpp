#include "net/wire.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "persist/checkpoint.hpp"
#include "persist/state_io.hpp"

namespace xbarlife::net {

namespace {

constexpr char kMagic[4] = {'X', 'B', 'W', '1'};

}  // namespace

void set_wire_metrics(obs::Registry* /*registry*/) {}

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kHelloAck:
      return "hello_ack";
    case MsgType::kExecute:
      return "execute";
    case MsgType::kExecuteResult:
      return "execute_result";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kHeartbeatAck:
      return "heartbeat_ack";
    case MsgType::kError:
      return "error";
    case MsgType::kStats:
      return "stats";
    case MsgType::kStatsAck:
      return "stats_ack";
    case MsgType::kExecuteReplay:
      return "execute_replay";
  }
  return "unknown";
}

std::string encode_frame(MsgType type, std::uint64_t seq_id,
                         std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the protocol maximum of " +
                    std::to_string(kMaxFramePayload));
  }
  // One buffer sized for header + payload: the payload is copied once.
  persist::StateWriter w(kFrameHeaderSize + payload.size());
  for (const char m : kMagic) {
    w.u8(static_cast<std::uint8_t>(m));
  }
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // flags (reserved)
  w.u8(0);
  w.u64(seq_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(persist::crc32(payload));
  if (!payload.empty()) {
    std::memcpy(w.extend(payload.size()), payload.data(), payload.size());
  }
  return w.release();
}

void send_frame(Transport& t, std::string_view frame,
                obs::Registry* metrics) {
  t.send(frame);
  if (metrics != nullptr) {
    metrics->bucketed_histogram("net.frame_bytes_out")
        .observe(static_cast<double>(frame.size()));
  }
}

void write_frame(Transport& t, MsgType type, std::uint64_t seq_id,
                 std::string_view payload, obs::Registry* metrics) {
  send_frame(t, encode_frame(type, seq_id, payload), metrics);
}

Frame read_frame(Transport& t, std::chrono::milliseconds timeout,
                 obs::Registry* metrics) {
  char header[kFrameHeaderSize];
  t.recv_exact(header, kFrameHeaderSize, timeout);
  persist::StateReader r(std::string_view(header, kFrameHeaderSize));
  char magic[4];
  for (char& m : magic) {
    m = static_cast<char>(r.u8());
  }
  if (magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    throw WireError("bad frame magic (stream is not xbarlife.wire.v1 or "
                    "has lost sync)");
  }
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    throw WireError("unsupported wire protocol version " +
                    std::to_string(version) + " (this build speaks " +
                    std::to_string(kWireVersion) + ")");
  }
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kExecuteReplay) ||
      type == 8) {
    throw WireError("unknown frame type " + std::to_string(type));
  }
  r.u8();  // flags (reserved)
  r.u8();
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.seq_id = r.u64();
  const std::uint32_t payload_len = r.u32();
  const std::uint32_t expected_crc = r.u32();
  if (payload_len > kMaxFramePayload) {
    throw WireError("frame payload length " + std::to_string(payload_len) +
                    " exceeds the protocol maximum of " +
                    std::to_string(kMaxFramePayload));
  }
  frame.payload = FramePayload(payload_len);
  if (payload_len > 0) {
    try {
      t.recv_exact(frame.payload.data(), payload_len, timeout);
    } catch (const TransportTimeout&) {
      // The header was already consumed, so "retry the read later" would
      // resume at the wrong stream position. A peer that sent a header
      // but not the payload within the deadline has effectively broken
      // the stream — surface it as a framing error so callers reconnect.
      throw WireError("frame truncated: " +
                      std::string(to_string(frame.type)) +
                      " payload did not arrive within the deadline");
    }
  }
  if (persist::crc32(frame.payload) != expected_crc) {
    if (metrics != nullptr) {
      metrics->counter("net.crc_failures").add();
    }
    throw WireError("frame payload CRC mismatch (corrupt " +
                    std::string(to_string(frame.type)) + " frame)");
  }
  if (metrics != nullptr) {
    metrics->bucketed_histogram("net.frame_bytes_in")
        .observe(static_cast<double>(kFrameHeaderSize + payload_len));
  }
  return frame;
}

}  // namespace xbarlife::net
