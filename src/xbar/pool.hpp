// Endpoint routing and health for the remote executor.
//
// The remote backend (RemoteExecutor, xbar/remote.hpp) shards sequence
// dispatch across the endpoints of a comma-separated list
// ("unix:/a,unix:/b,host:port,loopback"; a plain address is a list of
// one). Each array has a deterministic owning endpoint — rendezvous
// (highest-random-weight) hashing of the array's owner key (see
// Crossbar::owner_key) against every endpoint slot, so adding or removing
// an endpoint moves only the keys that endpoint owned — and every
// endpoint carries its own health state machine:
//
//   healthy --failure--> suspect --(2 consecutive)--> open
//      ^                    |                                  |
//      +----- success ------+        half-open heartbeat probe +
//                                    (jittered exponential backoff)
//
// Dispatch walks the array's rendezvous preference order, skipping
// endpoints whose circuit is open (not yet probe-due), and fails over to
// the next live endpoint *before* burning the global max_attempts budget:
// one budget round means "every endpoint was tried and failed", so
// local-sim fallback — and the executor_degradation stamp — engages only
// when every worker is down. Byte-identity is preserved by construction:
// every worker runs the stock SimExecutor on shipped full pre-state, so
// which endpoint (or the local fallback) executes a sequence can never
// change its results.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace xbarlife::xbar {

/// Splits a comma-separated endpoint list, trimming surrounding spaces.
/// Throws InvalidArgument on an empty list or an empty entry.
std::vector<std::string> split_endpoints(const std::string& address);

/// Highest-random-weight score of `key` against one endpoint slot. `slot`
/// is the occurrence index of `endpoint` within the list (0 for a unique
/// address): duplicates (three "loopback" workers) still spread load,
/// while a unique address scores the same wherever it sits in the list —
/// the property that makes membership changes move minimal load.
std::uint64_t rendezvous_score(std::uint64_t key, std::string_view endpoint,
                               std::size_t slot);

/// Endpoint indices in descending score order for `key`: element 0 is the
/// owner, the rest the deterministic failover order. Removing an endpoint
/// from the list leaves every other key's relative order intact (the
/// minimal-movement property of rendezvous hashing).
std::vector<std::size_t> rendezvous_order(
    std::uint64_t key, const std::vector<std::string>& endpoints);

/// Health state of one endpoint.
enum class CircuitState : std::uint8_t {
  kHealthy = 0,  ///< no outstanding failures
  kSuspect = 1,  ///< failing, but below the open threshold
  kOpen = 2,     ///< skipped by dispatch until the half-open probe is due
};

const char* to_string(CircuitState state);

/// Jitter stream `index` of a remote executor, forked from one fixed
/// seed: stream 0 drives the retry backoff, stream 1 + i endpoint i's
/// circuit probes.
Rng jitter_stream(std::uint64_t index);

/// Per-endpoint health state machine. Time-point driven (no internal
/// clock) so tests pin transitions without sleeping; not thread-safe —
/// the executor serializes access under its own mutex.
class CircuitBreaker {
 public:
  /// Consecutive failures before the circuit opens (the first failure
  /// always moves healthy -> suspect).
  static constexpr int kFailureThreshold = 2;

  struct Config {
    /// Half-open probe schedule: initial * 2^k, capped, with
    /// multiplicative jitter in [0.5, 1.0) from the seeded stream.
    std::chrono::milliseconds probe_backoff_initial{100};
    std::chrono::milliseconds probe_backoff_max{2000};
  };

  CircuitBreaker(const Config& config, Rng jitter);

  CircuitState state() const { return state_; }

  /// True when dispatch may target the endpoint: healthy and suspect
  /// circuits always, an open circuit only once its probe window is due
  /// (the half-open state).
  bool admits(std::chrono::steady_clock::time_point now) const {
    return state_ != CircuitState::kOpen || now >= probe_after_;
  }

  /// Any successful round trip fully re-admits the endpoint.
  void record_success();

  /// Records a failed attempt (or a failed half-open probe). Returns true
  /// exactly when this failure opened the circuit; an already-open
  /// circuit instead doubles its (capped, jittered) probe backoff.
  bool record_failure(std::chrono::steady_clock::time_point now);

  /// Times the circuit has opened over the breaker's lifetime.
  std::uint64_t opens() const { return opens_; }

  std::chrono::steady_clock::time_point probe_after() const {
    return probe_after_;
  }

 private:
  std::chrono::milliseconds jittered(std::chrono::milliseconds base);

  Config config_;
  Rng jitter_;
  CircuitState state_ = CircuitState::kHealthy;
  int consecutive_failures_ = 0;
  std::chrono::milliseconds probe_backoff_;
  std::chrono::steady_clock::time_point probe_after_{};
  std::uint64_t opens_ = 0;
};

}  // namespace xbarlife::xbar
