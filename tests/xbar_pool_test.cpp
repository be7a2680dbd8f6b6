// Multi-endpoint contract tests of the remote executor: endpoint-list
// parsing, rendezvous owner selection (determinism, duplicate-address
// spread, minimal movement on membership change), the per-endpoint
// circuit-breaker state machine (time-point driven, no sleeps), failover
// dispatch that never burns the global budget while a live endpoint
// remains, the deterministic kill-matrix chaos suite, pool-wide
// exhaustion fallback, and the executor-registry /
// envelope-summary wiring. The single-endpoint counterparts of the
// fallback, pin and validation tests live in xbar_remote_test.cpp.
#include "xbar/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/faulty.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "persist/state_io.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/remote.hpp"

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

/// Pool config with fast-failing knobs so dead endpoints cost
/// milliseconds, not deadlines.
RemoteConfig pool_config(const std::string& address) {
  RemoteConfig cfg;
  cfg.address = address;
  cfg.dial_timeout = 100ms;
  cfg.request_deadline = 500ms;
  cfg.max_attempts = 2;
  cfg.backoff_initial = 1ms;
  cfg.backoff_max = 2ms;
  return cfg;
}

/// A crossbar whose rendezvous owner is endpoint `slot`, so dispatch tests
/// can pin which endpoint a request prefers: searches owner keys from 0
/// until one lands on the slot, which terminates fast.
std::unique_ptr<Crossbar> crossbar_owned_by(
    std::size_t slot, const std::vector<std::string>& addresses,
    std::size_t rows = 4, std::size_t cols = 4) {
  auto xb = std::make_unique<Crossbar>(rows, cols, dev(), ag_crosstalk());
  for (std::uint64_t key = 0; key < 256; ++key) {
    if (rendezvous_order(key, addresses)[0] == slot) {
      xb->set_owner_key(key);
      return xb;
    }
  }
  ADD_FAILURE() << "no key owned by slot " << slot << " below 256";
  return nullptr;
}

// ---------------------------------------------------------------------------
// Endpoint-list parsing.

TEST(Pool, SplitEndpointsParsesAndTrims) {
  const auto list = split_endpoints(" unix:/a, 127.0.0.1:7781 ,loopback");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "unix:/a");
  EXPECT_EQ(list[1], "127.0.0.1:7781");
  EXPECT_EQ(list[2], "loopback");

  const auto single = split_endpoints("loopback");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], "loopback");
}

TEST(Pool, SplitEndpointsRejectsEmptyEntries) {
  EXPECT_THROW(split_endpoints("loopback,,loopback"), InvalidArgument);
  EXPECT_THROW(split_endpoints("loopback,"), InvalidArgument);
  EXPECT_THROW(split_endpoints(",loopback"), InvalidArgument);
  EXPECT_THROW(split_endpoints(""), InvalidArgument);
  EXPECT_THROW(split_endpoints("  ,  "), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Rendezvous owner selection.

TEST(Pool, RendezvousOrderIsDeterministicAndComplete) {
  const std::vector<std::string> eps = {"unix:/a", "unix:/b", "host:1"};
  for (std::uint64_t key = 0; key < 50; ++key) {
    const auto order = rendezvous_order(key, eps);
    ASSERT_EQ(order.size(), eps.size());
    EXPECT_EQ(order, rendezvous_order(key, eps));
    // Every index appears exactly once: the order is a permutation.
    std::set<std::size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), eps.size());
  }
}

TEST(Pool, RendezvousSpreadsLoadAcrossDistinctAddresses) {
  const std::vector<std::string> eps = {"unix:/a", "unix:/b", "host:1"};
  std::map<std::size_t, int> owned;
  for (std::uint64_t key = 0; key < 300; ++key) {
    owned[rendezvous_order(key, eps)[0]]++;
  }
  for (std::size_t i = 0; i < eps.size(); ++i) {
    EXPECT_GT(owned[i], 30) << "slot " << i << " starves";
  }
}

TEST(Pool, RendezvousSpreadsDuplicateAddresses) {
  // Three identical "loopback" entries must still split ownership: the
  // score folds in the per-address occurrence index.
  const std::vector<std::string> eps = {"loopback", "loopback", "loopback"};
  std::map<std::size_t, int> owned;
  for (std::uint64_t key = 0; key < 300; ++key) {
    owned[rendezvous_order(key, eps)[0]]++;
  }
  for (std::size_t i = 0; i < eps.size(); ++i) {
    EXPECT_GT(owned[i], 30) << "slot " << i << " starves";
  }
}

TEST(Pool, RendezvousMembershipChangeMovesOnlyTheLostEndpointsKeys) {
  // Removing unix:/b must not reshuffle keys owned by the survivors —
  // the minimal-movement property that makes scale-down cheap.
  const std::vector<std::string> full = {"unix:/a", "unix:/b", "host:1"};
  const std::vector<std::string> without_b = {"unix:/a", "host:1"};
  int moved = 0;
  for (std::uint64_t key = 0; key < 300; ++key) {
    const std::size_t owner = rendezvous_order(key, full)[0];
    const std::size_t after = rendezvous_order(key, without_b)[0];
    const std::string& owner_addr = full[owner];
    const std::string& after_addr = without_b[after];
    if (owner_addr == "unix:/b") {
      ++moved;  // orphaned keys must land somewhere else
    } else {
      EXPECT_EQ(owner_addr, after_addr) << "key " << key << " moved "
                                        << "despite its owner surviving";
    }
  }
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// Per-endpoint fault-spec lists.

TEST(Pool, FaultSpecListSplitsPerEndpoint) {
  const auto specs = net::split_fault_specs("seed=1,drop=0.5;;seed=2", 3);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], "seed=1,drop=0.5");
  EXPECT_EQ(specs[1], "");
  EXPECT_EQ(specs[2], "seed=2");

  // No ';' -> the same spec applies to every endpoint (the pre-pool
  // contract for a single link).
  const auto shared = net::split_fault_specs("seed=1,drop=0.5", 2);
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0], shared[1]);

  // Missing trailing segments are clean links.
  const auto padded = net::split_fault_specs("seed=1;", 3);
  ASSERT_EQ(padded.size(), 3u);
  EXPECT_EQ(padded[0], "seed=1");
  EXPECT_EQ(padded[1], "");
  EXPECT_EQ(padded[2], "");

  EXPECT_THROW(net::split_fault_specs("a;b;c", 2), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Circuit-breaker state machine (explicit time points, no sleeps).

CircuitBreaker::Config breaker_config() {
  CircuitBreaker::Config cfg;
  cfg.probe_backoff_initial = 100ms;
  cfg.probe_backoff_max = 400ms;
  return cfg;
}

TEST(Circuit, OpensAfterThresholdConsecutiveFailures) {
  CircuitBreaker cb(breaker_config(), Rng(7));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(cb.state(), CircuitState::kHealthy);
  EXPECT_TRUE(cb.admits(t0));

  EXPECT_FALSE(cb.record_failure(t0));  // first failure: suspect, not open
  EXPECT_EQ(cb.state(), CircuitState::kSuspect);
  EXPECT_TRUE(cb.admits(t0));  // suspect endpoints still take traffic

  EXPECT_TRUE(cb.record_failure(t0));  // threshold reached: opens now
  EXPECT_EQ(cb.state(), CircuitState::kOpen);
  EXPECT_EQ(cb.opens(), 1u);
  EXPECT_FALSE(cb.record_failure(t0));  // already open: no second "open"
  EXPECT_EQ(cb.opens(), 1u);
}

TEST(Circuit, SuccessFullyReAdmitsFromAnyState) {
  CircuitBreaker cb(breaker_config(), Rng(7));
  const auto t0 = std::chrono::steady_clock::now();
  cb.record_failure(t0);
  cb.record_success();
  EXPECT_EQ(cb.state(), CircuitState::kHealthy);

  // The threshold counts *consecutive* failures: after a success it takes
  // two more to open again.
  EXPECT_FALSE(cb.record_failure(t0));
  EXPECT_TRUE(cb.record_failure(t0));
  EXPECT_EQ(cb.state(), CircuitState::kOpen);
  cb.record_success();
  EXPECT_EQ(cb.state(), CircuitState::kHealthy);
  EXPECT_EQ(cb.opens(), 1u);
}

TEST(Circuit, OpenCircuitAdmitsOnlyOnceProbeIsDue) {
  CircuitBreaker cb(breaker_config(), Rng(7));
  const auto t0 = std::chrono::steady_clock::now();
  cb.record_failure(t0);
  cb.record_failure(t0);
  ASSERT_EQ(cb.state(), CircuitState::kOpen);

  // The probe window is jittered into [0.5, 1.0) of the 100ms base.
  EXPECT_GE(cb.probe_after(), t0 + 50ms);
  EXPECT_LE(cb.probe_after(), t0 + 100ms);
  EXPECT_FALSE(cb.admits(t0));
  EXPECT_FALSE(cb.admits(cb.probe_after() - 1ms));
  EXPECT_TRUE(cb.admits(cb.probe_after()));  // half-open
}

TEST(Circuit, FailedProbesDoubleTheBackoffUpToTheCap) {
  CircuitBreaker cb(breaker_config(), Rng(7));
  const auto t0 = std::chrono::steady_clock::now();
  cb.record_failure(t0);
  cb.record_failure(t0);
  ASSERT_EQ(cb.state(), CircuitState::kOpen);

  // Failing half-open probes back the schedule off 200ms -> 400ms, then
  // pin at the 400ms cap; jitter keeps each window in [base/2, base).
  cb.record_failure(t0);
  EXPECT_GE(cb.probe_after(), t0 + 100ms);
  EXPECT_LE(cb.probe_after(), t0 + 200ms);
  cb.record_failure(t0);
  EXPECT_GE(cb.probe_after(), t0 + 200ms);
  EXPECT_LE(cb.probe_after(), t0 + 400ms);
  cb.record_failure(t0);
  EXPECT_GE(cb.probe_after(), t0 + 200ms);
  EXPECT_LE(cb.probe_after(), t0 + 400ms);

  // Recovery resets the schedule to the initial window.
  cb.record_success();
  cb.record_failure(t0);
  cb.record_failure(t0);
  EXPECT_LE(cb.probe_after(), t0 + 100ms);
}

// The jitter streams of one executor — the retry backoff (stream 0) and
// each endpoint's circuit probes (stream 1 + i) — must differ from each
// other, so endpoints do not probe in lockstep, and every executor must
// reproduce them exactly.
TEST(Circuit, ForkedJitterStreamsDivergeAndReproduce) {
  const auto draws = [](std::uint64_t stream) {
    Rng rng = jitter_stream(stream);
    std::vector<double> out;
    for (int i = 0; i < 8; ++i) {
      out.push_back(rng.uniform());
    }
    return out;
  };
  std::set<std::vector<double>> distinct;
  for (std::uint64_t stream = 0; stream <= 3; ++stream) {
    EXPECT_EQ(draws(stream), draws(stream)) << "stream " << stream;
    distinct.insert(draws(stream));
  }
  EXPECT_EQ(distinct.size(), 4u) << "two streams of one executor coincide";
}

// ---------------------------------------------------------------------------
// Pool dispatch.

TEST(Pool, RejectsSingleEndpointConfigsItCannotParse) {
  EXPECT_THROW(RemoteExecutor(pool_config("loopback,,loopback")),
               InvalidArgument);
  RemoteConfig bad = pool_config("loopback,loopback");
  bad.max_attempts = 0;
  EXPECT_THROW(RemoteExecutor{bad}, InvalidArgument);
  RemoteConfig bad_spec = pool_config("loopback,loopback");
  bad_spec.fault_spec = "drop=2.0";
  EXPECT_THROW(RemoteExecutor{bad_spec}, InvalidArgument);
}

TEST(Pool, LoopbackPoolMatchesSimByteIdentical) {
  const ProgramSequence seq = mixed_sequence(6, 5);
  Crossbar local(6, 5, dev(), ag_crosstalk());
  Crossbar pooled(6, 5, dev(), ag_crosstalk());

  const RemoteExecutor pool{pool_config("loopback,loopback,loopback")};
  ASSERT_EQ(pool.size(), 3u);
  const ExecReport want = SimExecutor{}.execute(local, seq);
  const ExecReport got = pool.execute(pooled, seq);

  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(snapshot(pooled), snapshot(local));
  EXPECT_FALSE(pool.degraded());
  EXPECT_EQ(pool.link_stats().fallbacks, 0u);
  EXPECT_EQ(pool.link_stats().requests, 1u);
}

TEST(Pool, DispatchFollowsTheRendezvousOwner) {
  const RemoteExecutor pool{pool_config("loopback,loopback,loopback")};
  const ProgramSequence seq = mixed_sequence(4, 4);
  for (std::size_t slot = 0; slot < pool.size(); ++slot) {
    auto xb = crossbar_owned_by(slot, pool.addresses());
    ASSERT_NE(xb, nullptr);
    pool.execute(*xb, seq);
    EXPECT_EQ(pool.endpoint_summaries()[slot].requests, 1u)
        << "request did not land on owner slot " << slot;
  }
  std::uint64_t total = 0;
  for (const auto& ep : pool.endpoint_summaries()) {
    total += ep.requests;
    EXPECT_EQ(ep.failovers, 0u);
    EXPECT_EQ(ep.circuit, "healthy");
  }
  EXPECT_EQ(total, 3u);
}

TEST(Pool, DeadOwnerFailsOverWithoutBurningTheBudget) {
  // Endpoint 0 can never answer; its arrays must fail over to a live
  // worker inside the same budget round — zero fallbacks, zero
  // degradation, byte-identical results.
  const RemoteExecutor pool{pool_config("127.0.0.1:1,loopback,loopback")};
  const ProgramSequence seq = mixed_sequence(4, 4);

  auto owned = crossbar_owned_by(0, pool.addresses());
  ASSERT_NE(owned, nullptr);
  Crossbar local(4, 4, dev(), ag_crosstalk());

  const ExecReport want = SimExecutor{}.execute(local, seq);
  const ExecReport got = pool.execute(*owned, seq);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(snapshot(*owned), snapshot(local));

  EXPECT_FALSE(pool.degraded());
  const auto eps = pool.endpoint_summaries();
  EXPECT_EQ(eps[0].requests, 0u);
  EXPECT_EQ(eps[0].failovers, 1u);
  EXPECT_EQ(eps[0].circuit, "suspect");
  EXPECT_EQ(eps[1].requests + eps[2].requests, 1u);
  const RemoteLinkStats stats = pool.link_stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(Pool, RepeatedFailuresOpenTheCircuitAndDispatchSkipsIt) {
  const RemoteExecutor pool{pool_config("127.0.0.1:1,loopback,loopback")};
  const ProgramSequence seq = mixed_sequence(4, 4);

  // Two dead-owner requests: failure #2 opens endpoint 0's circuit.
  for (int i = 0; i < 2; ++i) {
    auto xb = crossbar_owned_by(0, pool.addresses());
    ASSERT_NE(xb, nullptr);
    pool.execute(*xb, seq);
  }
  auto eps = pool.endpoint_summaries();
  EXPECT_EQ(eps[0].circuit, "open");
  EXPECT_EQ(eps[0].circuit_opens, 1u);
  EXPECT_EQ(eps[0].failovers, 2u);

  // While open (probe not yet due), dispatch routes around it without
  // even attempting a connection: failovers must not grow.
  auto xb = crossbar_owned_by(0, pool.addresses());
  ASSERT_NE(xb, nullptr);
  pool.execute(*xb, seq);
  eps = pool.endpoint_summaries();
  EXPECT_EQ(eps[0].failovers, 2u);
  EXPECT_FALSE(pool.degraded());
}

TEST(Pool, KillMatrixAnySingleEndpointDownIsInvisible) {
  // The chaos kill matrix: for every endpoint k of 3 and every failure
  // mode (disconnect=1.0 severs the transport, corrupt=1.0 mangles every
  // frame into a CRC/framing error), break exactly k and run a workload.
  // Any single-worker failure must produce zero fallbacks and results
  // byte-identical to the local sim — the tentpole acceptance property.
  const ProgramSequence seq = mixed_sequence(5, 4);
  for (const char* fault : {"seed=9,disconnect=1.0", "seed=9,corrupt=1.0"}) {
    for (std::size_t k = 0; k < 3; ++k) {
      SCOPED_TRACE(std::string("fault: ") + fault +
                   ", endpoint: " + std::to_string(k));
      std::string spec;
      for (std::size_t i = 0; i < 3; ++i) {
        if (i == k) {
          spec += fault;
        }
        if (i + 1 < 3) {
          spec += ';';
        }
      }
      RemoteConfig cfg = pool_config("loopback,loopback,loopback");
      cfg.fault_spec = spec;
      const RemoteExecutor pool{cfg};

      for (int arrays = 0; arrays < 4; ++arrays) {
        Crossbar local(5, 4, dev(), ag_crosstalk());
        Crossbar pooled(5, 4, dev(), ag_crosstalk());
        const ExecReport want = SimExecutor{}.execute(local, seq);
        const ExecReport got = pool.execute(pooled, seq);
        EXPECT_EQ(got.results, want.results);
        EXPECT_EQ(snapshot(pooled), snapshot(local));
      }
      EXPECT_FALSE(pool.degraded());
      const RemoteLinkStats stats = pool.link_stats();
      EXPECT_EQ(stats.requests, 4u);
      EXPECT_EQ(stats.fallbacks, 0u);
      EXPECT_EQ(pool.endpoint_summaries()[k].requests, 0u);
    }
  }
}

TEST(Pool, WholePoolDownFallsBackToLocalSim) {
  RemoteConfig cfg = pool_config("127.0.0.1:1,127.0.0.1:1,127.0.0.1:1");
  const RemoteExecutor pool{cfg};
  const ProgramSequence seq = mixed_sequence(4, 4);

  Crossbar local(4, 4, dev(), ag_crosstalk());
  Crossbar pooled(4, 4, dev(), ag_crosstalk());
  const ExecReport want = SimExecutor{}.execute(local, seq);
  const ExecReport got = pool.execute(pooled, seq);

  // Pool-wide exhaustion: the one fallback, byte-identical by
  // construction because no failed attempt mutated local state.
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(snapshot(pooled), snapshot(local));
  EXPECT_TRUE(pool.degraded());
  const RemoteLinkStats stats = pool.link_stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.fallbacks, 1u);
  // max_attempts=2 rounds over 3 endpoints: every attempt after the
  // first counts as a retry.
  EXPECT_EQ(stats.retries, 5u);
}

TEST(Pool, WorkerRejectionDoesNotFailOver) {
  // A deterministic worker-side rejection (sequence geometry exceeding
  // the shipped array) would be rejected identically by every worker:
  // the pool must rethrow instead of spraying the bad request across the
  // fleet, and no failover may be counted.
  const RemoteExecutor pool{pool_config("loopback,loopback")};
  Crossbar xb(3, 3, dev(), ag_crosstalk());
  EXPECT_THROW(pool.execute(xb, mixed_sequence(8, 8)), RemoteWorkerError);
  for (const auto& ep : pool.endpoint_summaries()) {
    EXPECT_EQ(ep.failovers, 0u);
  }
  EXPECT_FALSE(pool.degraded());
}

TEST(Pool, PinLocalFallbackRoutesEverythingLocal) {
  const RemoteExecutor pool{pool_config("127.0.0.1:1,127.0.0.1:1")};
  Crossbar local(4, 4, dev(), ag_crosstalk());
  Crossbar pooled(4, 4, dev(), ag_crosstalk());
  const ProgramSequence seq = mixed_sequence(4, 4);
  SimExecutor{}.execute(local, seq);
  pool.execute(pooled, seq);
  ASSERT_TRUE(pool.degraded());
  const RemoteLinkStats before = pool.link_stats();
  const std::vector<PoolEndpointSummary> endpoints_before =
      pool.endpoint_summaries();

  // After the first fallback the executor pins itself to local sim: the
  // next sequence never dials (its profile holds no encode or wait span)
  // and counts no failover, yet it still counts as a request and as a
  // fallback.
  obs::Profiler prof;
  pooled.attach_profiler(&prof);
  const ExecReport want = SimExecutor{}.execute(local, seq);
  const ExecReport got = pool.execute(pooled, seq);
  ASSERT_EQ(prof.records().size(), 1u);
  EXPECT_EQ(prof.records()[0].name, "executor.remote.execute");
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(snapshot(pooled), snapshot(local));
  const RemoteLinkStats after = pool.link_stats();
  EXPECT_EQ(after.requests, before.requests + 1);
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  EXPECT_EQ(after.retries, before.retries);
  EXPECT_EQ(after.reconnects, before.reconnects);
  const std::vector<PoolEndpointSummary> endpoints_after =
      pool.endpoint_summaries();
  ASSERT_EQ(endpoints_after.size(), endpoints_before.size());
  for (std::size_t i = 0; i < endpoints_after.size(); ++i) {
    EXPECT_EQ(endpoints_after[i].failovers, endpoints_before[i].failovers);
    EXPECT_EQ(endpoints_after[i].requests, 0u);
  }
}

// ---------------------------------------------------------------------------
// Per-endpoint telemetry.

TEST(Pool, PerEndpointCountersLandInTheAttachedRegistry) {
  obs::Registry reg;
  const RemoteExecutor pool{pool_config("127.0.0.1:1,loopback,loopback")};
  const ProgramSequence seq = mixed_sequence(4, 4);
  auto owned = crossbar_owned_by(0, pool.addresses());
  ASSERT_NE(owned, nullptr);
  owned->attach_metrics(&reg);
  pool.execute(*owned, seq);

  // The dead owner counts a failover under its own prefix; whichever
  // live endpoint completed the request counts it under its prefix.
  EXPECT_EQ(reg.counter("executor.remote.0.failovers").value(), 1u);
  const std::uint64_t served =
      reg.counter("executor.remote.1.requests").value() +
      reg.counter("executor.remote.2.requests").value();
  EXPECT_EQ(served, 1u);
  // The failure moved endpoint 0 to suspect; no pool-wide series exists
  // for a request that never fell back.
  EXPECT_EQ(reg.gauge("executor.remote.0.circuit_state").value(), 1.0);
  EXPECT_EQ(reg.to_json().dump().find("executor.remote.fallbacks"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Executor-registry and envelope wiring.

TEST(Pool, RegistryBuildsPoolForCommaAddressAndStampsSummary) {
  RemoteConfig cfg = pool_config("loopback,loopback,loopback");
  configure_remote_executor(cfg);
  set_executor("remote");
  EXPECT_EQ(executor_name(), "remote");

  ExecutorPoolSummary summary = executor_pool_summary();
  ASSERT_TRUE(summary.active);
  ASSERT_EQ(summary.endpoints.size(), 3u);
  for (const auto& ep : summary.endpoints) {
    EXPECT_EQ(ep.address, "loopback");
    EXPECT_EQ(ep.circuit, "healthy");
  }

  // The summary is gated on the pool being the *active* backend.
  set_executor("sim");
  EXPECT_FALSE(executor_pool_summary().active);

  // A single address is a pool of one and stamps like any other pool.
  configure_remote_executor(RemoteConfig{});
  set_executor("remote");
  summary = executor_pool_summary();
  ASSERT_TRUE(summary.active);
  ASSERT_EQ(summary.endpoints.size(), 1u);
  EXPECT_EQ(summary.endpoints[0].address, "loopback");
  set_executor("sim");
}

}  // namespace
}  // namespace xbarlife::xbar
