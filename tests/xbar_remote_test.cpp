// Remote-executor contract tests: the request/response codec, worker-side
// request validation (including the corrupt-geometry bomb), loopback
// byte-identity against the local sim backend, idempotent replay, retry /
// fallback behavior against dead endpoints, shutdown responsiveness, and
// a deterministic chaos matrix over seeded fault schedules. The chaos and
// replay-accounting tests run over one and three endpoints; the pool
// counterparts of the fallback, pin and validation tests live in
// xbar_pool_test.cpp.
#include "xbar/remote.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/version.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "persist/state_io.hpp"
#include "xbar/crossbar.hpp"

namespace xbarlife::xbar {
namespace {

using namespace std::chrono_literals;

device::DeviceParams dev() { return device::DeviceParams{}; }

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

/// The endpoint lists shared behaviour is checked over: one endpoint and
/// a pool of three.
const std::vector<std::string> kLoopbackLists = {"loopback",
                                                 "loopback,loopback,loopback"};

/// A fast-failing config against endpoints that will never answer.
RemoteConfig dead_endpoint_config(const std::string& address = "127.0.0.1:1") {
  RemoteConfig cfg;
  cfg.address = address;
  cfg.dial_timeout = 100ms;
  cfg.request_deadline = 200ms;
  cfg.max_attempts = 2;
  cfg.backoff_initial = 1ms;
  cfg.backoff_max = 2ms;
  return cfg;
}

// ---------------------------------------------------------------------------
// Request/response codec and worker-side validation.

TEST(RemoteCodec, RequestRoundTripsThroughWorkerHandler) {
  const ProgramSequence seq = mixed_sequence(5, 4);
  Crossbar local(5, 4, dev(), ag_crosstalk());
  Crossbar remote_copy(5, 4, dev(), ag_crosstalk());

  const std::string request = encode_execute_request(remote_copy, seq);
  const std::string response = execute_request(request);
  const ExecuteResponse resp = decode_execute_response(response);

  const ExecReport local_report = SimExecutor{}.execute(local, seq);
  EXPECT_EQ(resp.results, local_report.results);
  EXPECT_EQ(resp.pulses, local_report.stats.pulses);
  EXPECT_EQ(resp.crossbar_state, snapshot(local));
}

TEST(RemoteCodec, NonidealConfigurationShipsWithTheRequest) {
  NonidealityConfig cfg;
  cfg.write_noise_sigma = 0.01;
  cfg.stuck_off_fraction = 0.05;
  const ProgramSequence seq = mixed_sequence(6, 6);

  Crossbar local(6, 6, dev(), ag_crosstalk());
  local.configure_nonideality(cfg, 99);
  Crossbar shipped(6, 6, dev(), ag_crosstalk());
  shipped.configure_nonideality(cfg, 99);

  const std::string response =
      execute_request(encode_execute_request(shipped, seq));
  const ExecuteResponse resp = decode_execute_response(response);
  SimExecutor{}.execute(local, seq);
  EXPECT_EQ(resp.crossbar_state, snapshot(local));
}

TEST(RemoteCodec, RejectsUnsupportedVersion) {
  // Only the current codec version is accepted: a future one, and the
  // v1/v2 layouts earlier builds spoke, in both directions.
  persist::StateWriter future;
  future.u8(42);
  EXPECT_THROW(execute_request(future.data()), InvalidArgument);
  Crossbar xb(3, 3, dev(), ag_crosstalk());
  const std::string request = encode_execute_request(xb, mixed_sequence(3, 3));
  const std::string response = execute_request(request);
  for (const std::uint8_t old : {std::uint8_t{1}, std::uint8_t{2}}) {
    SCOPED_TRACE("version " + std::to_string(old));
    std::string old_request = request;
    old_request[0] = static_cast<char>(old);
    EXPECT_THROW(execute_request(old_request), InvalidArgument);
    std::string old_response = response;
    old_response[0] = static_cast<char>(old);
    EXPECT_THROW(decode_execute_response(old_response), InvalidArgument);
  }
}

TEST(RemoteCodec, RejectsGeometryNotBackedByState) {
  // A corrupt (or hostile) request claiming a giant array but shipping a
  // tiny state must be rejected before any allocation happens.
  Crossbar xb(3, 3, dev(), ag_crosstalk());
  const ProgramSequence seq = mixed_sequence(3, 3);
  std::string request = encode_execute_request(xb, seq);
  // rows is the u64 right after the 1-byte version: blow it up.
  for (std::size_t i = 0; i < 8; ++i) {
    request[1 + i] = static_cast<char>(0xff);
  }
  try {
    execute_request(request);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("geometry"), std::string::npos);
  }
}

TEST(RemoteCodec, RejectsUnboundedLevels) {
  // Aging statistics walk every level of every cell, so a crafted level
  // count must be refused at decode time, not pin the worker's CPU.
  Crossbar xb(3, 3, dev(), ag_crosstalk());
  std::string request = encode_execute_request(xb, mixed_sequence(3, 3));
  // levels is the u64 after version (u8), rows, cols (u64) and the two
  // fresh resistance bounds (f64).
  constexpr std::size_t kLevelsOffset = 1 + 4 * 8;
  persist::StateWriter levels;
  levels.u64(std::uint64_t{1} << 40);
  request.replace(kLevelsOffset, 8, levels.data());
  const auto start = std::chrono::steady_clock::now();
  try {
    execute_request(request);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxLevels"), std::string::npos);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
}

TEST(RemoteCodec, RejectsTrailingBytes) {
  Crossbar xb(3, 3, dev(), ag_crosstalk());
  std::string request =
      encode_execute_request(xb, mixed_sequence(3, 3)) + "junk";
  EXPECT_THROW(execute_request(request), Error);
}

/// Runs `decode` on `bytes`; a clean decode or a typed decoding error
/// (InvalidArgument / CheckpointError / WireError) passes, anything else
/// (another exception, an allocation failure) fails. Out-of-range reads
/// show up under the ASan/UBSan build.
template <class Decode>
void expect_fails_closed(const Decode& decode, const std::string& bytes,
                         const std::string& what) {
  try {
    decode(bytes);
  } catch (const InvalidArgument&) {
  } catch (const CheckpointError&) {
  } catch (const net::WireError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": untyped failure: " << e.what();
  }
}

TEST(RemoteCodec, CorruptionOfEveryByteAndTruncationFailsClosed) {
  // The execute request (decoded and run by the worker) and the execute
  // response (decoded, then restored into the client's array the way the
  // executor does it) of a 3x4 array, the hello payload, and a worker
  // stats snapshot: every single-byte flip and every truncation either
  // decodes or throws a typed error. The shipped state goes through the
  // block readers (crossbar cells, tracker blocks, sequence ops, per-op
  // results).
  NonidealityConfig cfg;
  cfg.write_noise_sigma = 0.01;
  cfg.stuck_off_fraction = 0.1;
  Crossbar xb(3, 4, dev(), ag_crosstalk());
  xb.configure_nonideality(cfg, 5);
  const ProgramSequence seq = mixed_sequence(3, 4);
  const std::string request = encode_execute_request(xb, seq, true, 3, 1);
  const std::string response = execute_request(request);
  WorkerStatsState stats;
  stats.requests_served.store(4);
  stats.metrics.bucketed_histogram("worker.request_ms").observe(1.5);

  struct Case {
    const char* name;
    std::string good;
    std::function<void(const std::string&)> decode;
  };
  const std::vector<Case> cases = {
      {"request", request,
       [](const std::string& bytes) { (void)execute_request(bytes); }},
      {"response", response,
       [&](const std::string& bytes) {
         const ExecuteResponse resp = decode_execute_response(bytes);
         Crossbar client(3, 4, dev(), ag_crosstalk());
         client.configure_nonideality(cfg, 5);
         persist::StateReader sr(resp.crossbar_state);
         client.load_state(sr);
       }},
      {"hello", hello_payload(),
       [](const std::string& bytes) { (void)read_hello(bytes); }},
      {"stats ack", stats.encode_snapshot(),
       [](const std::string& bytes) { (void)decode_worker_stats(bytes); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.decode(c.good);  // the unmodified bytes decode cleanly
    for (std::size_t i = 0; i < c.good.size(); ++i) {
      for (const unsigned mask : {0x01U, 0x80U, 0xffU}) {
        std::string mutated = c.good;
        mutated[i] = static_cast<char>(
            static_cast<unsigned char>(mutated[i]) ^ mask);
        expect_fails_closed(c.decode, mutated,
                            "flip at " + std::to_string(i));
      }
    }
    for (std::size_t len = 0; len < c.good.size(); ++len) {
      expect_fails_closed(c.decode, c.good.substr(0, len),
                          "truncation to " + std::to_string(len));
    }
  }
}

// ---------------------------------------------------------------------------
// serve_connection protocol behavior.

TEST(ServeConnection, AnswersHelloHeartbeatAndEndsOnClose) {
  auto [client, server] = net::make_pipe();
  std::atomic<bool> stop{false};
  std::thread worker([&, t = server.get()] {
    ServeOptions opts;
    opts.idle_poll = 20ms;
    opts.stop = &stop;
    opts.honor_shutdown_flag = false;
    serve_connection(*t, opts);
  });

  net::write_frame(*client, net::MsgType::kHello, 1, hello_payload());
  EXPECT_EQ(net::read_frame(*client, 1000ms).type, net::MsgType::kHelloAck);
  net::write_frame(*client, net::MsgType::kHeartbeat, 2);
  EXPECT_EQ(net::read_frame(*client, 1000ms).type,
            net::MsgType::kHeartbeatAck);
  // The serve loop returns once the client hangs up; no stop flag trips.
  client->close();
  worker.join();
  EXPECT_FALSE(stop.load());
}

TEST(ServeConnection, MalformedExecuteYieldsErrorFrameNotDeath) {
  auto [client, server] = net::make_pipe();
  std::atomic<bool> stop{false};
  std::thread worker([&, t = server.get()] {
    ServeOptions opts;
    opts.idle_poll = 20ms;
    opts.stop = &stop;
    opts.honor_shutdown_flag = false;
    serve_connection(*t, opts);
  });

  net::write_frame(*client, net::MsgType::kExecute, 5, "not a request");
  const net::Frame err = net::read_frame(*client, 1000ms);
  EXPECT_EQ(err.type, net::MsgType::kError);
  EXPECT_EQ(err.seq_id, 5u);
  persist::StateReader r(err.payload);
  EXPECT_FALSE(r.str().empty());

  // The connection survives a rejected request.
  net::write_frame(*client, net::MsgType::kHeartbeat, 6);
  EXPECT_EQ(net::read_frame(*client, 1000ms).type,
            net::MsgType::kHeartbeatAck);
  client->close();
  worker.join();
}

TEST(ServeConnection, ReplaysCachedResponseForRepeatedId) {
  auto [client, server] = net::make_pipe();
  std::atomic<bool> stop{false};
  std::thread worker([&, t = server.get()] {
    ServeOptions opts;
    opts.idle_poll = 20ms;
    opts.stop = &stop;
    opts.honor_shutdown_flag = false;
    serve_connection(*t, opts);
  });

  Crossbar xb(4, 4, dev(), ag_crosstalk());
  const std::string request =
      encode_execute_request(xb, mixed_sequence(4, 4));
  net::write_frame(*client, net::MsgType::kExecute, 9, request);
  const net::Frame first = net::read_frame(*client, 2000ms);
  ASSERT_EQ(first.type, net::MsgType::kExecuteResult);

  // The retry (same id, e.g. the first response was lost) must yield the
  // byte-identical cached response — not a re-execution — and the worker
  // marks it with the kExecuteReplay frame type so the client can account
  // replays separately from fresh work.
  net::write_frame(*client, net::MsgType::kExecute, 9, request);
  const net::Frame replay = net::read_frame(*client, 2000ms);
  EXPECT_EQ(replay.type, net::MsgType::kExecuteReplay);
  EXPECT_EQ(replay.payload, first.payload);

  client->close();
  worker.join();
}

// ---------------------------------------------------------------------------
// RemoteExecutor over the loopback worker.

TEST(RemoteExecutor_, LoopbackMatchesSimByteIdentical) {
  const ProgramSequence seq = mixed_sequence(6, 5);
  Crossbar local(6, 5, dev(), ag_crosstalk());
  Crossbar remote_xb(6, 5, dev(), ag_crosstalk());

  const ExecReport local_report = SimExecutor{}.execute(local, seq);
  const RemoteExecutor remote{RemoteConfig{}};
  const ExecReport remote_report = remote.execute(remote_xb, seq);

  EXPECT_EQ(snapshot(remote_xb), snapshot(local));
  EXPECT_EQ(remote_report.results, local_report.results);
  EXPECT_EQ(remote_report.stats.pulses, local_report.stats.pulses);
  EXPECT_FALSE(remote.degraded());
  EXPECT_EQ(remote.link_stats().requests, 1u);
  EXPECT_EQ(remote.link_stats().retries, 0u);
  EXPECT_EQ(remote.link_stats().fallbacks, 0u);
}

TEST(RemoteExecutor_, LoopbackCreditsPulseAndExecutorCounters) {
  const ProgramSequence seq = mixed_sequence(6, 5);

  obs::Counter lp, lt, ls, lb;
  Crossbar local(6, 5, dev(), ag_crosstalk());
  local.attach_pulse_counters(&lp, &lt);
  local.attach_executor_counters(&ls, &lb);
  SimExecutor{}.execute(local, seq);

  obs::Counter rp, rt, rs, rb;
  Crossbar remote_xb(6, 5, dev(), ag_crosstalk());
  remote_xb.attach_pulse_counters(&rp, &rt);
  remote_xb.attach_executor_counters(&rs, &rb);
  const RemoteExecutor remote{RemoteConfig{}};
  remote.execute(remote_xb, seq);

  // Counter parity: pulses happened in the worker process, but they are
  // credited to the client-side counters, matching a local run exactly.
  EXPECT_EQ(rp.value(), lp.value());
  EXPECT_EQ(rt.value(), lt.value());
  EXPECT_EQ(rs.value(), ls.value());
  EXPECT_EQ(rb.value(), lb.value());
  EXPECT_GT(rp.value(), 0u);
}

TEST(RemoteExecutor_, SequentialSequencesShareTheConnection) {
  Crossbar local(5, 5, dev(), ag_crosstalk());
  Crossbar remote_xb(5, 5, dev(), ag_crosstalk());
  const RemoteExecutor remote{RemoteConfig{}};
  for (int round = 0; round < 3; ++round) {
    const ProgramSequence seq = mixed_sequence(5, 5);
    SimExecutor{}.execute(local, seq);
    remote.execute(remote_xb, seq);
  }
  EXPECT_EQ(snapshot(remote_xb), snapshot(local));
  EXPECT_EQ(remote.link_stats().requests, 3u);
  EXPECT_EQ(remote.link_stats().reconnects, 0u);
}

// ---------------------------------------------------------------------------
// Failure handling: dead endpoints, fallback, pinning, shutdown.

TEST(RemoteExecutor_, DeadEndpointFallsBackToSimByteIdentical) {
  const ProgramSequence seq = mixed_sequence(6, 5);
  Crossbar local(6, 5, dev(), ag_crosstalk());
  Crossbar remote_xb(6, 5, dev(), ag_crosstalk());

  // The one fallback, byte-identical by construction because no failed
  // attempt mutated local state.
  const ExecReport want = SimExecutor{}.execute(local, seq);
  const RemoteExecutor remote{dead_endpoint_config()};
  EXPECT_EQ(remote.execute(remote_xb, seq).results, want.results);

  EXPECT_EQ(snapshot(remote_xb), snapshot(local));
  EXPECT_TRUE(remote.degraded());
  const RemoteLinkStats stats = remote.link_stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.retries, 1u);  // max_attempts=2 -> one retry
  EXPECT_EQ(stats.fallbacks, 1u);
}

TEST(RemoteExecutor_, PinLocalFallbackSkipsTheLinkEntirely) {
  const RemoteExecutor remote{dead_endpoint_config()};
  const ProgramSequence seq = mixed_sequence(5, 4);
  Crossbar local(5, 4, dev(), ag_crosstalk());
  Crossbar remote_xb(5, 4, dev(), ag_crosstalk());
  SimExecutor{}.execute(local, seq);
  remote.execute(remote_xb, seq);
  ASSERT_TRUE(remote.degraded());
  const RemoteLinkStats before = remote.link_stats();

  // After the first fallback the executor pins itself to local sim: the
  // next sequence never dials (its profile holds no encode or wait span),
  // counts as a request and a fallback, and still matches sim.
  obs::Profiler prof;
  remote_xb.attach_profiler(&prof);
  SimExecutor{}.execute(local, seq);
  remote.execute(remote_xb, seq);
  ASSERT_EQ(prof.records().size(), 1u);
  EXPECT_EQ(prof.records()[0].name, "executor.remote.execute");
  EXPECT_EQ(snapshot(remote_xb), snapshot(local));
  const RemoteLinkStats after = remote.link_stats();
  EXPECT_EQ(after.requests, before.requests + 1);
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  EXPECT_EQ(after.retries, before.retries);
  EXPECT_EQ(after.reconnects, before.reconnects);
}

TEST(RemoteExecutor_, ShutdownRequestInterruptsRetryLoop) {
  reset_shutdown();
  RemoteConfig cfg = dead_endpoint_config();
  cfg.max_attempts = 1000;          // would grind for minutes...
  cfg.backoff_initial = 50ms;
  cfg.backoff_max = 250ms;
  const RemoteExecutor remote{cfg};
  Crossbar xb(4, 4, dev(), ag_crosstalk());

  std::thread interrupter([] {
    std::this_thread::sleep_for(100ms);
    request_shutdown();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(remote.execute(xb, mixed_sequence(4, 4)), InterruptedError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  interrupter.join();
  reset_shutdown();
  // ...but the cooperative shutdown flag cuts it off promptly (polled in
  // 10 ms slices inside the backoff sleep).
  EXPECT_LT(elapsed, 5s);
}

TEST(RemoteExecutor_, RejectsNonPositiveMaxAttempts) {
  RemoteConfig cfg;
  cfg.max_attempts = 0;
  EXPECT_THROW(RemoteExecutor{cfg}, InvalidArgument);
  RemoteConfig bad_spec;
  bad_spec.fault_spec = "drop=2.0";
  EXPECT_THROW(RemoteExecutor{bad_spec}, InvalidArgument);
}

// ---------------------------------------------------------------------------
// Chaos matrix: every seeded fault schedule must end in one of exactly two
// states — remote completion byte-identical to sim, or a clean fallback
// (also byte-identical, and flagged degraded). Never a hang, crash, or
// silent divergence.

TEST(RemoteExecutor_, ChaosMatrixCompletesOrFallsBackByteIdentical) {
  const std::vector<std::string> specs = {
      "seed=1,drop=0.2",
      "seed=2,corrupt=0.2",
      "seed=3,dup=0.3",
      "seed=4,disconnect=0.15",
      "seed=5,drop=0.15,corrupt=0.1,dup=0.1,disconnect=0.05",
      "seed=6,drop=0.5,disconnect=0.2",
      "seed=7,drop=0.1,corrupt=0.05,disconnect=0.02,delay_ms=1",
  };
  for (const std::string& address : kLoopbackLists) {
    for (const std::string& spec : specs) {
      SCOPED_TRACE("address: " + address + ", fault spec: " + spec);
      RemoteConfig cfg;
      cfg.address = address;
      cfg.fault_spec = spec;
      cfg.request_deadline = 150ms;
      cfg.max_attempts = 4;
      cfg.backoff_initial = 1ms;
      cfg.backoff_max = 4ms;
      const RemoteExecutor remote{cfg};

      Crossbar local(6, 5, dev(), ag_crosstalk());
      Crossbar remote_xb(6, 5, dev(), ag_crosstalk());
      for (int round = 0; round < 4; ++round) {
        const ProgramSequence seq = mixed_sequence(6, 5);
        const ExecReport local_report = SimExecutor{}.execute(local, seq);
        const ExecReport remote_report = remote.execute(remote_xb, seq);
        EXPECT_EQ(remote_report.results, local_report.results);
      }
      // Whether the schedule let the requests through (possibly after
      // retries, failovers and reconnects) or forced fallbacks, the final
      // state is byte-identical to the local run.
      EXPECT_EQ(snapshot(remote_xb), snapshot(local));
      const RemoteLinkStats stats = remote.link_stats();
      EXPECT_EQ(stats.requests, 4u);
      EXPECT_EQ(remote.degraded(), stats.fallbacks > 0);
    }
  }
}

TEST(RemoteExecutor_, ChaosScheduleIsReproducible) {
  // The same spec must produce the same retry/reconnect/fallback history
  // on every run — the property that makes chaos failures debuggable.
  const auto run = [] {
    RemoteConfig cfg;
    cfg.fault_spec = "seed=5,drop=0.15,corrupt=0.1,dup=0.1,disconnect=0.05";
    cfg.request_deadline = 150ms;
    cfg.max_attempts = 4;
    cfg.backoff_initial = 1ms;
    cfg.backoff_max = 4ms;
    const RemoteExecutor remote{cfg};
    Crossbar xb(6, 5, dev(), ag_crosstalk());
    for (int round = 0; round < 4; ++round) {
      remote.execute(xb, mixed_sequence(6, 5));
    }
    return remote.link_stats();
  };
  const RemoteLinkStats a = run();
  const RemoteLinkStats b = run();
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.reconnects, b.reconnects);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
}

// Replay accounting: a retried request answered from the worker's replay
// cache must count as `replay_served`, never inflate the fresh-request
// counter, and the totals must reconcile — every logical submission
// resolves to exactly one fresh result, one replay, or one fallback.
// Pulse accounting must not inflate either: each sequence's pulses are
// credited exactly once no matter how many retries it took. Holds for one
// endpoint and for a pool, where a retry reaches the same endpoint after
// a full round.
TEST(RemoteExecutor_, ReplayAccountingReconcilesUnderLossySchedules) {
  const std::vector<std::string> specs = {
      "seed=1,drop=0.2",
      "seed=6,drop=0.5,disconnect=0.2",
      "seed=5,drop=0.15,corrupt=0.1,dup=0.1,disconnect=0.05",
  };
  for (const std::string& address : kLoopbackLists) {
    bool any_replays = false;
    for (const std::string& spec : specs) {
      SCOPED_TRACE("address: " + address + ", fault spec: " + spec);
      obs::Registry reg;
      RemoteConfig cfg;
      cfg.address = address;
      cfg.fault_spec = spec;
      cfg.request_deadline = 150ms;
      cfg.max_attempts = 6;
      cfg.backoff_initial = 1ms;
      cfg.backoff_max = 4ms;
      const RemoteExecutor remote{cfg};

      obs::Counter pulses, traced;
      Crossbar xb(6, 5, dev(), ag_crosstalk());
      xb.attach_pulse_counters(&pulses, &traced);
      xb.attach_metrics(&reg);
      constexpr std::uint64_t kSequences = 6;
      std::uint64_t expected_pulses = 0;
      for (std::uint64_t i = 0; i < kSequences; ++i) {
        const ProgramSequence seq = mixed_sequence(6, 5);
        expected_pulses += seq.stats().pulses;
        remote.execute(xb, seq);
      }

      const RemoteLinkStats stats = remote.link_stats();
      std::uint64_t fresh = 0;
      std::uint64_t replays = 0;
      for (std::size_t i = 0; i < remote.size(); ++i) {
        const std::string prefix = "executor.remote." + std::to_string(i);
        fresh += reg.counter(prefix + ".requests").value();
        replays += reg.counter(prefix + ".replay_served").value();
      }
      ASSERT_EQ(stats.requests, kSequences);
      EXPECT_EQ(fresh + replays + stats.fallbacks, kSequences)
          << "fresh=" << fresh << " replays=" << replays
          << " fallbacks=" << stats.fallbacks;
      // Retries resolved by a replayed response must not have re-credited
      // the pulse counters: exactly one credit per logical sequence.
      EXPECT_EQ(pulses.value(), expected_pulses);
      EXPECT_EQ(xb.total_pulses(), expected_pulses);
      any_replays = any_replays || replays > 0;
    }
    // At least one lossy schedule must actually exercise the replay path,
    // or this test pins nothing.
    EXPECT_TRUE(any_replays) << "address: " << address;
  }
}

// ---------------------------------------------------------------------------
// Worker stats endpoint and the versioned hello.

/// A versioned kHello payload as the client builds it.
std::string client_hello(std::uint8_t wire_v, std::uint8_t req_v) {
  persist::StateWriter w;
  w.u8(wire_v);
  w.u8(req_v);
  w.str("test-client");
  return w.data();
}

TEST(RemoteCodec, WorkerStatsSnapshotRoundTrips) {
  WorkerStatsState state;
  state.requests_served.store(7);
  state.replay_hits.store(2);
  state.errors.store(1);
  state.active_connections.store(3);
  state.connections_total.store(5);
  state.metrics.bucketed_histogram("worker.request_ms").observe(1.5);

  const WorkerStatsSnapshot snap =
      decode_worker_stats(state.encode_snapshot());
  EXPECT_EQ(snap.build, kBuildVersion);
  EXPECT_EQ(snap.wire_version, net::kWireVersion);
  EXPECT_EQ(snap.request_version, kRequestVersion);
  EXPECT_EQ(snap.requests_served, 7u);
  EXPECT_EQ(snap.replay_hits, 2u);
  EXPECT_EQ(snap.errors, 1u);
  EXPECT_EQ(snap.active_connections, 3u);
  EXPECT_EQ(snap.connections_total, 5u);
  EXPECT_NE(snap.metrics_json.find("worker.request_ms"), std::string::npos);

  const std::string doc = snap.to_json("loopback").dump();
  EXPECT_EQ(doc.find("{\"schema\":\"xbarlife.workerstats.v1\","
                     "\"endpoint\":\"loopback\""),
            0u);
  EXPECT_NE(doc.find("\"requests_served\":7"), std::string::npos);
}

TEST(RemoteCodec, RejectsUnknownStatsSnapshotVersion) {
  persist::StateWriter w;
  w.u8(99);
  EXPECT_THROW(decode_worker_stats(w.data()), InvalidArgument);
}

TEST(ServeConnection, StatsEndpointReportsLiveAccounting) {
  auto [client, server] = net::make_pipe();
  std::atomic<bool> stop{false};
  WorkerStatsState stats;
  std::thread worker([&, t = server.get()] {
    ServeOptions opts;
    opts.idle_poll = 20ms;
    opts.stop = &stop;
    opts.honor_shutdown_flag = false;
    opts.stats = &stats;
    serve_connection(*t, opts);
  });

  // Versioned hello: the ack carries the worker's versions and build.
  net::write_frame(*client, net::MsgType::kHello, 1,
                   client_hello(net::kWireVersion, kRequestVersion));
  const net::Frame hello_ack = net::read_frame(*client, 1000ms);
  ASSERT_EQ(hello_ack.type, net::MsgType::kHelloAck);
  {
    persist::StateReader r(hello_ack.payload);
    EXPECT_EQ(r.u8(), net::kWireVersion);
    EXPECT_EQ(r.u8(), kRequestVersion);
    EXPECT_EQ(r.str(), kBuildVersion);
  }

  Crossbar xb(4, 4, dev(), ag_crosstalk());
  const std::string request =
      encode_execute_request(xb, mixed_sequence(4, 4));
  net::write_frame(*client, net::MsgType::kExecute, 11, request);
  ASSERT_EQ(net::read_frame(*client, 2000ms).type,
            net::MsgType::kExecuteResult);
  // A replayed id answers from the cache (flagged as kExecuteReplay):
  // requests_served must not move.
  net::write_frame(*client, net::MsgType::kExecute, 11, request);
  ASSERT_EQ(net::read_frame(*client, 2000ms).type,
            net::MsgType::kExecuteReplay);
  net::write_frame(*client, net::MsgType::kExecute, 12, request);
  ASSERT_EQ(net::read_frame(*client, 2000ms).type,
            net::MsgType::kExecuteResult);

  net::write_frame(*client, net::MsgType::kStats, 13);
  const net::Frame stats_ack = net::read_frame(*client, 1000ms);
  ASSERT_EQ(stats_ack.type, net::MsgType::kStatsAck);
  const WorkerStatsSnapshot snap = decode_worker_stats(stats_ack.payload);
  EXPECT_EQ(snap.requests_served, 2u);
  EXPECT_EQ(snap.replay_hits, 1u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.active_connections, 1u);
  EXPECT_EQ(snap.connections_total, 1u);
  // Request latency and wire telemetry accumulate in the worker registry,
  // and the replay above landed in its own worker.replay_served counter.
  EXPECT_NE(snap.metrics_json.find("\"worker.request_ms\""),
            std::string::npos);
  EXPECT_NE(snap.metrics_json.find("\"worker.replay_served\""),
            std::string::npos);
  EXPECT_NE(snap.metrics_json.find("\"net.frame_bytes_in\""),
            std::string::npos);

  client->close();
  worker.join();
}

TEST(ServeConnection, StatsWithoutStateAnswersError) {
  auto [client, server] = net::make_pipe();
  std::atomic<bool> stop{false};
  std::thread worker([&, t = server.get()] {
    ServeOptions opts;
    opts.idle_poll = 20ms;
    opts.stop = &stop;
    opts.honor_shutdown_flag = false;
    serve_connection(*t, opts);
  });

  net::write_frame(*client, net::MsgType::kStats, 3);
  const net::Frame err = net::read_frame(*client, 1000ms);
  EXPECT_EQ(err.type, net::MsgType::kError);
  persist::StateReader r(err.payload);
  EXPECT_NE(r.str().find("not enabled"), std::string::npos);
  client->close();
  worker.join();
}

TEST(ServeConnection, RejectsHelloFromMismatchedPeer) {
  auto [client, server] = net::make_pipe();
  std::atomic<bool> stop{false};
  WorkerStatsState stats;
  std::thread worker([&, t = server.get()] {
    ServeOptions opts;
    opts.idle_poll = 20ms;
    opts.stop = &stop;
    opts.honor_shutdown_flag = false;
    opts.stats = &stats;
    serve_connection(*t, opts);
  });

  // Wrong wire version.
  net::write_frame(*client, net::MsgType::kHello, 1,
                   client_hello(9, kRequestVersion));
  const net::Frame wire_err = net::read_frame(*client, 1000ms);
  EXPECT_EQ(wire_err.type, net::MsgType::kError);
  {
    persist::StateReader r(wire_err.payload);
    EXPECT_NE(r.str().find("protocol mismatch"), std::string::npos);
  }
  // A request codec newer than this worker speaks, the v1/v2 codecs of
  // earlier builds, and an empty (unversioned) hello.
  const std::vector<std::string> rejected = {
      client_hello(net::kWireVersion, 99), client_hello(net::kWireVersion, 1),
      client_hello(net::kWireVersion, 2), std::string()};
  std::uint64_t id = 2;
  for (const std::string& payload : rejected) {
    net::write_frame(*client, net::MsgType::kHello, id++, payload);
    EXPECT_EQ(net::read_frame(*client, 1000ms).type, net::MsgType::kError);
  }
  EXPECT_EQ(stats.errors.load(), 1u + rejected.size());

  // The connection survives, and a matching hello still succeeds.
  net::write_frame(*client, net::MsgType::kHello, id,
                   client_hello(net::kWireVersion, kRequestVersion));
  EXPECT_EQ(net::read_frame(*client, 1000ms).type, net::MsgType::kHelloAck);
  client->close();
  worker.join();
}

TEST(RemoteExecutor_, QueryWorkerStatusOverLoopback) {
  const WorkerStatsSnapshot snap = query_worker_status(RemoteConfig{});
  EXPECT_EQ(snap.build, kBuildVersion);
  EXPECT_EQ(snap.wire_version, net::kWireVersion);
  EXPECT_EQ(snap.request_version, kRequestVersion);
  EXPECT_GE(snap.connections_total, 1u);
  EXPECT_EQ(snap.requests_served, 0u);
}

// Wire telemetry lands on the side that sent or read each frame, by
// construction: the client's frames in the executing array's registry,
// the worker's in its stats registry.
TEST(RemoteExecutor_, WireTelemetryLandsInTheArrayAndWorkerRegistries) {
  const std::string path = testing::TempDir() + "xbw_wire_sides.sock";
  const std::unique_ptr<net::Listener> listener =
      net::listen("unix:" + path);
  WorkerStatsState worker_stats;
  std::thread worker([&] {
    try {
      const std::unique_ptr<net::Transport> conn = listener->accept(2000ms);
      ServeOptions opts;
      opts.idle_poll = 20ms;
      opts.stats = &worker_stats;
      serve_connection(*conn, opts);
    } catch (const net::TransportError&) {
      // no client arrived; the expectations below fail
    }
  });
  obs::Registry client;
  {
    RemoteConfig cfg;
    cfg.address = "unix:" + path;
    const RemoteExecutor remote{cfg};
    Crossbar xb(5, 4, dev(), ag_crosstalk());
    xb.attach_metrics(&client);
    remote.execute(xb, mixed_sequence(5, 4));
    EXPECT_EQ(remote.link_stats().fallbacks, 0u);
  }  // the executor closes its link, which ends the serving loop
  worker.join();
  listener->close();
  std::remove(path.c_str());

  // The client sent hello + execute and read the hello ack + result; the
  // worker read and sent the mirror frames.
  obs::Registry& served = worker_stats.metrics;
  EXPECT_EQ(client.histogram("net.frame_bytes_out").count(), 2u);
  EXPECT_EQ(client.histogram("net.frame_bytes_in").count(), 2u);
  EXPECT_EQ(served.histogram("net.frame_bytes_in").count(), 2u);
  EXPECT_EQ(served.histogram("net.frame_bytes_out").count(), 2u);
  EXPECT_EQ(client.histogram("net.frame_bytes_out").sum(),
            served.histogram("net.frame_bytes_in").sum());
  EXPECT_EQ(client.histogram("net.frame_bytes_in").sum(),
            served.histogram("net.frame_bytes_out").sum());
}

TEST(RemoteExecutor_, RejectsWorkerSpeakingAnOlderRequestCodec) {
  // A fake "old worker" that acks the hello with execute-request v1: the
  // client must refuse the endpoint with a WireError instead of sending
  // requests the worker cannot parse.
  const std::string path = testing::TempDir() + "xbw_hello_gate.sock";
  const std::unique_ptr<net::Listener> listener =
      net::listen("unix:" + path);
  std::thread old_worker([&] {
    try {
      const std::unique_ptr<net::Transport> conn = listener->accept(2000ms);
      const net::Frame hello = net::read_frame(*conn, 2000ms);
      ASSERT_EQ(hello.type, net::MsgType::kHello);
      persist::StateWriter w;
      w.u8(net::kWireVersion);
      w.u8(1);  // an execute-request codec older than the client needs
      w.str("old-worker");
      net::write_frame(*conn, net::MsgType::kHelloAck, hello.seq_id,
                       w.data());
      conn->close();
    } catch (const net::TransportError&) {
      // client hung up after rejecting the ack
    }
  });

  RemoteConfig cfg;
  cfg.address = "unix:" + path;
  EXPECT_THROW(query_worker_status(cfg), net::WireError);
  old_worker.join();
  listener->close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Trace-context propagation: worker span trees graft under the client's
// remote-execute span — once per completed request, never on fallback.

std::size_t count_spans(const obs::Profiler& prof, std::string_view name) {
  std::size_t n = 0;
  for (const obs::SpanRecord& rec : prof.records()) {
    n += rec.name == name;
  }
  return n;
}

bool has_ancestor(const std::vector<obs::SpanRecord>& recs, std::size_t idx,
                  std::string_view name) {
  for (std::size_t p = recs[idx].parent; p != obs::kNoSpan;
       p = recs[p].parent) {
    if (recs[p].name == name) {
      return true;
    }
  }
  return false;
}

TEST(RemoteExecutor_, ProfiledExecuteGraftsTheWorkerSpanTree) {
  obs::Profiler prof;
  obs::Registry registry;
  Crossbar xb(5, 4, dev(), ag_crosstalk());
  xb.attach_profiler(&prof);
  xb.attach_metrics(&registry);
  const RemoteExecutor remote{RemoteConfig{}};

  const std::size_t root = prof.begin_span("command");
  remote.execute(xb, mixed_sequence(5, 4));
  remote.execute(xb, mixed_sequence(5, 4));
  prof.end_span(root);

  // One client-side execute span with its codec phases, and one grafted
  // worker tree, per request.
  EXPECT_EQ(count_spans(prof, "executor.remote.execute"), 2u);
  for (const char* name :
       {"executor.remote.encode", "executor.remote.frame",
        "executor.remote.wait", "executor.remote.decode",
        "executor.remote.restore"}) {
    EXPECT_EQ(count_spans(prof, name), 2u) << name;
  }
  for (const char* name : {"worker.request", "worker.rebuild",
                           "worker.execute", "worker.serialize"}) {
    EXPECT_EQ(count_spans(prof, name), 2u) << name;
  }
  const std::vector<obs::SpanRecord>& recs = prof.records();
  bool saw_pulses = false;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_FALSE(recs[i].open) << recs[i].name;
    if (recs[i].name.rfind("worker.", 0) == 0) {
      // Grafted spans are never orphaned, always nest under the client's
      // remote-execute span, and share its display track.
      ASSERT_NE(recs[i].parent, obs::kNoSpan);
      EXPECT_TRUE(has_ancestor(recs, i, "executor.remote.execute"));
      EXPECT_EQ(recs[i].track, 0u);
    }
    if (recs[i].name == "worker.execute") {
      for (const auto& [name, value] : recs[i].counters) {
        saw_pulses |= name == "aging.pulses" && value > 0;
      }
    }
  }
  // The worker profiled its own pulse effort into its execute span...
  EXPECT_TRUE(saw_pulses);
  // ...and its registry deltas arrive namespaced, next to the client-side
  // round-trip histogram.
  const std::string dump = registry.to_json().dump();
  EXPECT_NE(dump.find("\"worker.aging.pulses\""), std::string::npos);
  EXPECT_NE(dump.find("\"executor.remote.0.request_ms\""),
            std::string::npos);
}

TEST(RemoteExecutor_, DegradedFallbackGraftsNoWorkerSpans) {
  obs::Profiler prof;
  Crossbar xb(4, 4, dev(), ag_crosstalk());
  xb.attach_profiler(&prof);
  const RemoteExecutor remote{dead_endpoint_config()};
  remote.execute(xb, mixed_sequence(4, 4));
  EXPECT_TRUE(remote.degraded());

  EXPECT_EQ(count_spans(prof, "executor.remote.execute"), 1u);
  // The request was encoded and waited on, but nothing came back to
  // decode or restore.
  EXPECT_EQ(count_spans(prof, "executor.remote.wait"), 1u);
  EXPECT_EQ(count_spans(prof, "executor.remote.decode"), 0u);
  EXPECT_EQ(count_spans(prof, "executor.remote.restore"), 0u);
  for (const obs::SpanRecord& rec : prof.records()) {
    EXPECT_FALSE(rec.open);
    EXPECT_NE(rec.name.rfind("worker.", 0), 0u) << rec.name;
  }
}

TEST(RemoteExecutor_, ChaosMatrixGraftsWellFormedSpanTrees) {
  // Under every seeded fault schedule — retries, replay hits, reconnects,
  // clean fallbacks — the grafted trace stays well-formed: exactly one
  // worker tree per remotely-completed request, none duplicated, none
  // orphaned, and nothing grafted for a fallback.
  const std::vector<std::string> specs = {
      "seed=11,drop=0.2",
      "seed=12,corrupt=0.2",
      "seed=13,dup=0.3,disconnect=0.1",
      "seed=14,drop=0.15,corrupt=0.1,dup=0.1,disconnect=0.05",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE("fault spec: " + spec);
    RemoteConfig cfg;
    cfg.fault_spec = spec;
    cfg.request_deadline = 150ms;
    cfg.max_attempts = 4;
    cfg.backoff_initial = 1ms;
    cfg.backoff_max = 4ms;
    const RemoteExecutor remote{cfg};

    obs::Profiler prof;
    Crossbar xb(6, 5, dev(), ag_crosstalk());
    xb.attach_profiler(&prof);
    const std::size_t root = prof.begin_span("command");
    for (int round = 0; round < 4; ++round) {
      remote.execute(xb, mixed_sequence(6, 5));
    }
    prof.end_span(root);

    const RemoteLinkStats stats = remote.link_stats();
    EXPECT_EQ(count_spans(prof, "executor.remote.execute"), 4u);
    EXPECT_EQ(count_spans(prof, "worker.request"),
              4u - static_cast<std::size_t>(stats.fallbacks));

    const std::vector<obs::SpanRecord>& recs = prof.records();
    std::map<std::size_t, std::size_t> trees_per_execute;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_FALSE(recs[i].open) << recs[i].name;
      if (recs[i].name.rfind("worker.", 0) == 0) {
        ASSERT_NE(recs[i].parent, obs::kNoSpan);
        EXPECT_TRUE(has_ancestor(recs, i, "executor.remote.execute"));
      }
      if (recs[i].name == "worker.request") {
        EXPECT_EQ(recs[recs[i].parent].name, "executor.remote.execute");
        ++trees_per_execute[recs[i].parent];
      }
    }
    for (const auto& [parent, trees] : trees_per_execute) {
      EXPECT_EQ(trees, 1u) << "duplicated worker tree under span "
                           << parent;
    }
  }
}

}  // namespace
}  // namespace xbarlife::xbar
