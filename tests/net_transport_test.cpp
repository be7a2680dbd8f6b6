// Transport and wire-protocol contract tests: pipe-pair semantics
// (delivery, timeouts, drain-on-close), frame round-trips and every
// integrity failure read_frame must reject, fault-plan parsing, the
// deterministic fault schedules chaos tests rely on, and the TCP / unix
// socket listeners.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/faulty.hpp"
#include "net/wire.hpp"

namespace xbarlife::net {
namespace {

using namespace std::chrono_literals;

std::string recv_string(Transport& t, std::size_t n,
                        std::chrono::milliseconds timeout = 1000ms) {
  std::string out(n, '\0');
  t.recv_exact(out.data(), n, timeout);
  return out;
}

TEST(PipeTransport, DeliversBytesInOrderAcrossThreads) {
  auto [a, b] = make_pipe();
  a->send("hello ");
  a->send("world");
  EXPECT_EQ(recv_string(*b, 11), "hello world");

  std::thread writer([&] { b->send("pong"); });
  EXPECT_EQ(recv_string(*a, 4), "pong");
  writer.join();
}

TEST(PipeTransport, RecvTimesOutPreservingPartialData) {
  auto [a, b] = make_pipe();
  a->send("abc");
  // Asking for more than is buffered times out...
  EXPECT_THROW(recv_string(*b, 5, 20ms), TransportTimeout);
  // ...but the 3 buffered bytes are not lost: once the rest arrives the
  // next read delivers the full run, in order.
  a->send("de");
  EXPECT_EQ(recv_string(*b, 5), "abcde");
}

TEST(PipeTransport, CloseDrainsBufferedBytesThenFails) {
  auto [a, b] = make_pipe();
  a->send("tail");
  a->close();
  // Buffered bytes survive the close; reading past them reports the
  // broken connection, and sending on a closed pipe fails immediately.
  EXPECT_EQ(recv_string(*b, 4), "tail");
  EXPECT_THROW(recv_string(*b, 1, 20ms), TransportError);
  EXPECT_THROW(b->send("x"), TransportError);
}

// ---------------------------------------------------------------------------
// Wire framing.

TEST(Wire, FrameRoundTripsThroughPipe) {
  auto [a, b] = make_pipe();
  const std::string payload = "program sequence bytes \x00\x01\x7f";
  write_frame(*a, MsgType::kExecute, 42, payload);
  const Frame f = read_frame(*b, 1000ms);
  EXPECT_EQ(f.type, MsgType::kExecute);
  EXPECT_EQ(f.seq_id, 42u);
  EXPECT_EQ(f.payload, payload);

  write_frame(*b, MsgType::kHeartbeatAck, 7);
  const Frame hb = read_frame(*a, 1000ms);
  EXPECT_EQ(hb.type, MsgType::kHeartbeatAck);
  EXPECT_EQ(hb.seq_id, 7u);
  EXPECT_TRUE(hb.payload.empty());
}

TEST(Wire, MsgTypeNamesAreStable) {
  EXPECT_STREQ(to_string(MsgType::kHello), "hello");
  EXPECT_STREQ(to_string(MsgType::kExecute), "execute");
  EXPECT_STREQ(to_string(MsgType::kExecuteReplay), "execute_replay");
}

TEST(Wire, RejectsBadMagic) {
  auto [a, b] = make_pipe();
  std::string frame = encode_frame(MsgType::kHello, 1, "x");
  frame[0] = 'Z';
  a->send(frame);
  EXPECT_THROW(read_frame(*b, 1000ms), WireError);
}

TEST(Wire, RejectsUnknownVersionAndType) {
  {
    auto [a, b] = make_pipe();
    std::string frame = encode_frame(MsgType::kHello, 1, "");
    frame[4] = 99;  // version byte
    a->send(frame);
    EXPECT_THROW(read_frame(*b, 1000ms), WireError);
  }
  // Type bytes outside [kHello, kExecuteReplay], and 8, the unassigned
  // gap inside it.
  for (const int type : {0, 8, 12, 127}) {
    auto [a, b] = make_pipe();
    std::string frame = encode_frame(MsgType::kHello, 1, "");
    frame[5] = static_cast<char>(type);
    a->send(frame);
    EXPECT_THROW(read_frame(*b, 1000ms), WireError) << type;
  }
}

TEST(Wire, RejectsOversizedLengthPrefix) {
  auto [a, b] = make_pipe();
  std::string frame = encode_frame(MsgType::kExecute, 1, "abc");
  // Rewrite the length field (offset 16, LE u32) to an absurd value; the
  // reader must refuse before attempting the allocation.
  frame[16] = static_cast<char>(0xff);
  frame[17] = static_cast<char>(0xff);
  frame[18] = static_cast<char>(0xff);
  frame[19] = static_cast<char>(0x7f);
  a->send(frame);
  EXPECT_THROW(read_frame(*b, 1000ms), WireError);
}

TEST(Wire, RejectsCorruptPayload) {
  auto [a, b] = make_pipe();
  std::string frame = encode_frame(MsgType::kExecute, 9, "payload-bytes");
  frame[kFrameHeaderSize + 3] ^= 0x10;  // flip one payload bit
  a->send(frame);
  EXPECT_THROW(read_frame(*b, 1000ms), WireError);
}

TEST(Wire, TruncatedPayloadIsAFramingError) {
  auto [a, b] = make_pipe();
  const std::string frame = encode_frame(MsgType::kExecute, 5, "0123456789");
  // Header promises 10 payload bytes but only 4 ever arrive: the header
  // has been consumed, so the stream is desynced and the failure must be
  // WireError (reconnect), not a retryable timeout.
  a->send(frame.substr(0, kFrameHeaderSize + 4));
  EXPECT_THROW(read_frame(*b, 50ms), WireError);
}

// ---------------------------------------------------------------------------
// Fault plans.

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan p = FaultPlan::parse(
      "seed=7,drop=0.1,corrupt=0.05,dup=0.02,disconnect=0.01,delay_ms=1.5");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.drop, 0.1);
  EXPECT_DOUBLE_EQ(p.corrupt, 0.05);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(p.disconnect, 0.01);
  EXPECT_DOUBLE_EQ(p.delay_ms, 1.5);
  EXPECT_TRUE(p.any());
}

TEST(FaultPlan, EmptySpecIsTransparent) {
  const FaultPlan p = FaultPlan::parse("");
  EXPECT_FALSE(p.any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("drop=-0.1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("drop"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("drop=abc"), InvalidArgument);
  // NaN passes a range check by comparison, so it must fail at parsing.
  EXPECT_THROW(FaultPlan::parse("drop=nan"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("delay_ms=nan"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("delay_ms=inf"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("drop=0.1x"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("drop= 0.1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("seed=-1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("seed=7x"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("seed=18446744073709551616"),
               InvalidArgument);
}

TEST(FaultyTransport, ScheduleIsDeterministicPerSeedAndStream) {
  // Replay the same plan twice over fresh pipes: the injected-fault log
  // must match event for event. A different stream must diverge.
  const FaultPlan plan = FaultPlan::parse("seed=11,drop=0.3,corrupt=0.2");
  const auto run = [&](std::uint64_t stream) {
    auto [a, b] = make_pipe();
    FaultyTransport faulty(std::move(a), plan, stream);
    for (int i = 0; i < 64; ++i) {
      faulty.send("frame-" + std::to_string(i));
    }
    return faulty.log();
  };
  const FaultLog first = run(0);
  const FaultLog again = run(0);
  EXPECT_EQ(first.sent, 64u);
  EXPECT_EQ(first.dropped, again.dropped);
  EXPECT_EQ(first.corrupted, again.corrupted);
  EXPECT_GT(first.dropped + first.corrupted, 0u);

  const FaultLog other = run(1);
  EXPECT_TRUE(other.dropped != first.dropped ||
              other.corrupted != first.corrupted);
}

TEST(FaultyTransport, DropsSilentlyAndCorruptsDetectably) {
  // drop=1: every frame vanishes; the receiver sees nothing.
  {
    FaultPlan plan;
    plan.seed = 3;
    plan.drop = 1.0;
    auto [a, b] = make_pipe();
    FaultyTransport faulty(std::move(a), plan, 0);
    write_frame(faulty, MsgType::kHello, 1);
    EXPECT_EQ(faulty.log().dropped, 1u);
    EXPECT_THROW(read_frame(*b, 20ms), TransportTimeout);
  }
  // corrupt=1: every frame arrives damaged; the CRC/header checks throw.
  {
    FaultPlan plan;
    plan.seed = 3;
    plan.corrupt = 1.0;
    auto [a, b] = make_pipe();
    FaultyTransport faulty(std::move(a), plan, 0);
    write_frame(faulty, MsgType::kHello, 1, "payload");
    EXPECT_EQ(faulty.log().corrupted, 1u);
    EXPECT_THROW(read_frame(*b, 1000ms), WireError);
  }
}

TEST(FaultyTransport, DisconnectCutsTheLinkPermanently) {
  FaultPlan plan;
  plan.seed = 5;
  plan.disconnect = 1.0;
  auto [a, b] = make_pipe();
  FaultyTransport faulty(std::move(a), plan, 0);
  EXPECT_THROW(faulty.send("frame"), TransportError);
  EXPECT_EQ(faulty.log().disconnects, 1u);
  // The cut is permanent on both the wrapper and the peer.
  EXPECT_THROW(faulty.send("again"), TransportError);
  EXPECT_THROW(recv_string(*b, 1, 20ms), TransportError);
}

TEST(FaultyTransport, DuplicateDeliversTheFrameTwice) {
  FaultPlan plan;
  plan.seed = 9;
  plan.duplicate = 1.0;
  auto [a, b] = make_pipe();
  FaultyTransport faulty(std::move(a), plan, 0);
  write_frame(faulty, MsgType::kHeartbeat, 4);
  EXPECT_EQ(faulty.log().duplicated, 1u);
  const Frame f1 = read_frame(*b, 1000ms);
  const Frame f2 = read_frame(*b, 1000ms);
  EXPECT_EQ(f1.type, MsgType::kHeartbeat);
  EXPECT_EQ(f2.type, MsgType::kHeartbeat);
  EXPECT_EQ(f1.seq_id, f2.seq_id);
}

TEST(FaultyTransport, MaybeWrapIsTransparentForEmptyPlan) {
  auto [a, b] = make_pipe();
  Transport* raw = a.get();
  auto wrapped = maybe_wrap_faulty(std::move(a), FaultPlan{}, 0);
  EXPECT_EQ(wrapped.get(), raw);  // no wrapper inserted

  FaultPlan plan;
  plan.drop = 0.5;
  auto faulty = maybe_wrap_faulty(std::move(b), plan, 0);
  EXPECT_NE(dynamic_cast<FaultyTransport*>(faulty.get()), nullptr);
}

// ---------------------------------------------------------------------------
// Socket transports.

void exchange_over(Listener& listener) {
  std::unique_ptr<Transport> client;
  std::thread dialer(
      [&] { client = dial(listener.address(), 2000ms); });
  std::unique_ptr<Transport> served = listener.accept(2000ms);
  dialer.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(served, nullptr);

  write_frame(*client, MsgType::kExecute, 77, "over the socket");
  const Frame f = read_frame(*served, 2000ms);
  EXPECT_EQ(f.type, MsgType::kExecute);
  EXPECT_EQ(f.seq_id, 77u);
  EXPECT_EQ(f.payload, "over the socket");

  write_frame(*served, MsgType::kExecuteResult, 77, "and back");
  EXPECT_EQ(read_frame(*client, 2000ms).payload, "and back");

  client->close();
  EXPECT_THROW(read_frame(*served, 2000ms), TransportError);
  served->close();
}

TEST(SocketTransport, TcpEphemeralPortRoundTrip) {
  const std::unique_ptr<Listener> listener = listen("127.0.0.1:0");
  // ":0" resolved to a real ephemeral port.
  EXPECT_EQ(listener->address().find("127.0.0.1:"), 0u);
  EXPECT_NE(listener->address(), "127.0.0.1:0");
  exchange_over(*listener);
  listener->close();
}

TEST(SocketTransport, UnixSocketRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "xbw_transport_test.sock";
  std::remove(path.c_str());
  const std::unique_ptr<Listener> listener = listen("unix:" + path);
  EXPECT_EQ(listener->address(), "unix:" + path);
  exchange_over(*listener);
  listener->close();
}

TEST(SocketTransport, AcceptTimesOutWithoutAClient) {
  const std::unique_ptr<Listener> listener = listen("127.0.0.1:0");
  EXPECT_THROW(listener->accept(20ms), TransportTimeout);
  listener->close();
}

TEST(SocketTransport, DialUnreachableThrowsTransportError) {
  // Port 1 is essentially never listening; a refused connection must be
  // TransportError (reconnectable), not a hang.
  EXPECT_THROW(dial("127.0.0.1:1", 500ms), TransportError);
  EXPECT_THROW(dial("not an address", 500ms), InvalidArgument);
  // A port must be all digits and at most 65535; "80abc" is not port 80.
  for (const char* bad : {"127.0.0.1:80abc", "127.0.0.1:-80", "127.0.0.1:+80",
                          "127.0.0.1:65536", "127.0.0.1: 80"}) {
    EXPECT_THROW(dial(bad, 500ms), InvalidArgument) << bad;
    EXPECT_THROW(listen(bad), InvalidArgument) << bad;
  }
}

}  // namespace
}  // namespace xbarlife::net
