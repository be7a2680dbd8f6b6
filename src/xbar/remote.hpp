// Remote program execution: the "remote" ProgramExecutor backend, the
// worker-side request handler, and the in-process loopback worker.
//
// The client serializes (array construction parameters + full crossbar
// state + ProgramSequence) into one xbarlife.wire.v1 kExecute frame, the
// worker rebuilds an identical array, runs the sequence through the local
// SimExecutor, and returns (per-op results + pulse tallies + post-execution
// state). The client restores that state verbatim, so a completed remote
// run is byte-identical to a local `sim` run *by construction* — the same
// deterministic code executes on the same bits, just in another process.
//
// Fault tolerance: each execute() keeps one request id across every
// attempt on every endpoint, with per-request deadlines, per-endpoint
// circuit breakers, failover, and jittered exponential backoff (see
// xbar/pool.hpp for routing and health). Because every request carries
// the full pre-state, re-execution after a lost response is naturally
// idempotent — and the worker additionally caches its last response per
// connection, replaying it without re-executing when the same id arrives
// again. When every attempt is exhausted the executor degrades gracefully
// (when enabled): the sequence runs on the local SimExecutor, the
// executor marks itself degraded (stamped into the result document, and
// picked up by the resilience ladder's fallback-executor rung), and the
// run continues with bit-identical results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/faulty.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "xbar/executor.hpp"

namespace xbarlife::xbar {

/// The remote worker reported a request-level failure (malformed payload,
/// geometry mismatch, an execution error). Not transient: the same
/// deterministic failure would recur on retry, so the client re-raises
/// instead of retrying.
class RemoteWorkerError : public Error {
 public:
  explicit RemoteWorkerError(const std::string& what) : Error(what) {}
};

// ---------------------------------------------------------------------------
// Worker-side protocol handlers (shared by the loopback thread and the
// xbarlife-worker app).

/// The execute codec version. Peers exchange it in the hello handshake
/// and both sides accept exactly this version: requests carry the trace
/// context, responses the optional telemetry, and replay-cache hits come
/// back as kExecuteReplay frames.
inline constexpr std::uint8_t kRequestVersion = 3;

/// Versioned hello / hello-ack payload: the wire version, the execute
/// codec version, and the build string.
std::string hello_payload();

/// Serializes a kExecute payload: geometry, device/aging parameters, the
/// nonideality configuration (so the worker can rebuild the identical
/// array), the full crossbar state, and the sequence. When
/// `want_telemetry` is set the request additionally carries a trace
/// context (trace_id / span_id) and asks the worker to profile itself and
/// ship its span tree + metric deltas back in the response.
std::string encode_execute_request(const Crossbar& xb,
                                   const ProgramSequence& seq,
                                   bool want_telemetry = false,
                                   std::uint64_t trace_id = 0,
                                   std::uint64_t span_id = 0);

/// Decodes a kExecute payload, rebuilds the array, executes the sequence
/// through SimExecutor, and returns the encoded kExecuteResult payload.
/// Throws (InvalidArgument / CheckpointError / Error) on a malformed or
/// inconsistent request; serve_connection turns that into a kError frame.
std::string execute_request(std::string_view payload);

/// Decoded kExecuteResult payload.
struct ExecuteResponse {
  std::vector<double> results;     ///< per-op outcomes, sequence-aligned
  std::uint64_t pulses = 0;        ///< pulse-counter delta for crediting
  std::uint64_t traced_pulses = 0; ///< traced-pulse delta for crediting
  std::string crossbar_state;      ///< post-execution save_state payload
  /// Worker-side telemetry, present only when the request asked for it.
  bool has_telemetry = false;
  std::uint64_t trace_id = 0;  ///< echo of the request trace context
  std::uint64_t span_id = 0;
  /// Worker span tree (worker.request > rebuild/execute/serialize), ready
  /// to graft under the client's remote-execute span.
  std::vector<obs::Profiler::RemoteSpan> spans;
  /// Worker registry counter deltas for this request, in name order.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

ExecuteResponse decode_execute_response(std::string_view payload);

/// Live statistics of a serving worker, shared by every serving thread
/// (the loopback worker embeds one; the xbarlife-worker app owns one).
/// Counters are atomic and the registry locks internally, so concurrent
/// connection threads update the single shared instance safely. Snapshots
/// ship as the kStatsAck payload and render as xbarlife.workerstats.v1.
struct WorkerStatsState {
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> replay_hits{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> active_connections{0};
  std::atomic<std::uint64_t> connections_total{0};
  /// Wire telemetry (net.frame_bytes_in/out, net.crc_failures) plus the
  /// bucketed worker.request_ms latency histogram.
  obs::Registry metrics;

  /// Encodes the kStatsAck payload (versioned binary snapshot).
  std::string encode_snapshot() const;
};

/// Client-side decode of a kStatsAck payload.
struct WorkerStatsSnapshot {
  std::string build;
  std::uint8_t wire_version = 0;
  std::uint8_t request_version = 0;
  std::uint64_t uptime_ms = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t replay_hits = 0;
  std::uint64_t errors = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t connections_total = 0;
  /// Pre-serialized Registry::to_json() dump from the worker, spliced
  /// verbatim into the document (the client never re-parses it).
  std::string metrics_json;

  /// Renders the xbarlife.workerstats.v1 document; `endpoint` (the
  /// address that answered) follows "schema".
  obs::JsonValue to_json(std::string_view endpoint) const;
};

WorkerStatsSnapshot decode_worker_stats(std::string_view payload);

struct ServeOptions {
  /// Idle read-poll granularity: how often the serve loop wakes to check
  /// the stop flags while no frame is arriving.
  std::chrono::milliseconds idle_poll{200};
  /// Optional external stop flag (the loopback worker's).
  const std::atomic<bool>* stop = nullptr;
  /// Also stop when the process-wide cooperative shutdown flag is set.
  bool honor_shutdown_flag = true;
  /// Optional shared stats (uptime, request/latency accounting, wire
  /// telemetry, kStats snapshots). Worker-side frames count into its
  /// registry; with none attached kStats is answered with kError and
  /// worker-side frames count nowhere.
  WorkerStatsState* stats = nullptr;
};

/// Serves one client connection until it closes, a framing error occurs,
/// a stop flag trips, or the client sends kShutdown (returns true in the
/// kShutdown case — the worker app exits its accept loop on it).
bool serve_connection(net::Transport& t, const ServeOptions& opts);

// ---------------------------------------------------------------------------
// In-process loopback worker: a worker thread per connection over pipe
// transports. The default endpoint of the remote backend, which makes
// `XBARLIFE_EXECUTOR=remote` work everywhere (tests, CI, the bench)
// without ports or subprocesses, and the substrate the chaos tests inject
// faults into.

class LoopbackWorker {
 public:
  /// `plan` is applied to the worker->client direction of every
  /// connection (the client wraps its own side), so both directions of
  /// the link can fault independently.
  explicit LoopbackWorker(const net::FaultPlan& plan = {});
  ~LoopbackWorker();

  LoopbackWorker(const LoopbackWorker&) = delete;
  LoopbackWorker& operator=(const LoopbackWorker&) = delete;

  /// Opens a new served connection and returns the client end (unwrapped;
  /// callers add their own fault wrapper if desired).
  std::unique_ptr<net::Transport> connect();

  /// Closes the stop flag and joins all serving threads. Idempotent.
  void stop();

  /// Live worker statistics shared by every served connection.
  WorkerStatsState& stats() { return stats_; }

 private:
  net::FaultPlan plan_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<std::thread> threads_;
  std::uint64_t connections_ = 0;
  WorkerStatsState stats_;
};

// ---------------------------------------------------------------------------
// The remote executor backend.

struct RemoteConfig {
  /// One endpoint or a comma-separated list of them; each is "loopback"
  /// (in-process worker thread), "unix:/path", or "host:port". A single
  /// address is a pool of one.
  std::string address = "loopback";
  /// FaultPlan spec injected on the client->worker direction (and, for
  /// loopback, independently on the worker->client direction). Empty
  /// means a clean link; a ';'-separated list applies per endpoint (see
  /// net::split_fault_specs).
  std::string fault_spec;
  /// Per-request deadline covering send + worker execution + response.
  std::chrono::milliseconds request_deadline{2000};
  std::chrono::milliseconds dial_timeout{500};
  /// Budget rounds per sequence before degrading. A round tries every
  /// admitted endpoint once in rendezvous order, so failing over to the
  /// next endpoint is free and only "every endpoint failed" burns one.
  int max_attempts = 5;
  /// Exponential backoff between rounds: initial * 2^k, capped, with
  /// multiplicative jitter in [0.5, 1.0) drawn from jitter_stream(0)
  /// (endpoint i's circuit probes draw from jitter_stream(1 + i)).
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_max{250};
  /// Degrade to the local SimExecutor when all attempts fail; when false
  /// the executor throws TransportError instead (CLI exit 3).
  bool fallback_to_sim = true;
  /// Circuit breaker: the jittered exponential backoff between half-open
  /// heartbeat probes of an open endpoint (a circuit opens after
  /// CircuitBreaker::kFailureThreshold consecutive failures).
  std::chrono::milliseconds probe_backoff_initial{100};
  std::chrono::milliseconds probe_backoff_max{2000};
};

/// Link-health counters (process-lifetime totals for this executor).
struct RemoteLinkStats {
  std::uint64_t requests = 0;    ///< sequences submitted
  std::uint64_t retries = 0;     ///< attempts after the first, any endpoint
  std::uint64_t reconnects = 0;  ///< connections re-established
  std::uint64_t fallbacks = 0;   ///< sequences executed via local fallback
};

/// The remote backend (implemented in xbar/pool.cpp). Each array has a
/// deterministic owning endpoint (rendezvous hashing of its owner key),
/// every endpoint has its own circuit breaker, and dispatch fails over to
/// the next live endpoint before spending the max_attempts budget;
/// local-sim fallback engages only when every endpoint failed in every
/// round.
///
/// Telemetry goes to the executing array's registry (Crossbar::metrics,
/// nothing when detached): per endpoint i the executor.remote.<i>.
/// {requests,replay_served,reconnects,failovers,circuit_opens} counters,
/// the bucketed executor.remote.<i>.request_ms round-trip histogram and
/// the executor.remote.<i>.circuit_state gauge, the executor-wide
/// executor.remote.fallbacks counter, the worker.* counter deltas of
/// profiled requests, and the net.* frame telemetry of every frame sent
/// or read on the array's behalf. Each metric is created only when its
/// event first occurs, so a fault-free run emits no failover, circuit, or
/// fallback series.
class RemoteExecutor final : public ProgramExecutor {
 public:
  explicit RemoteExecutor(RemoteConfig config);
  ~RemoteExecutor() override;

  const char* name() const override { return "remote"; }
  ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const override;

  /// True once at least one sequence fell back to local execution (or the
  /// executor was pinned). The resilience ladder's fallback-executor rung
  /// keys off this.
  bool degraded() const override;

  /// Pins every future execute() to the local SimExecutor (no more remote
  /// attempts). Returns true on the transition, false when already pinned.
  bool pin_local_fallback() const override;

  RemoteLinkStats link_stats() const;

  /// Per-endpoint request/failover/circuit accounting for the
  /// `executor_pool` envelope stamp.
  std::vector<PoolEndpointSummary> endpoint_summaries() const;

  std::size_t size() const { return endpoints_.size(); }
  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  struct Endpoint;

  void backoff_sleep(int round) const;

  RemoteConfig config_;
  std::vector<std::string> addresses_;
  /// Request (and trace) ids, plus hello/heartbeat ids: one counter for
  /// every frame this executor sends.
  mutable std::atomic<std::uint64_t> next_id_{0};
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  mutable std::mutex mu_;  ///< circuits + stats; never held across I/O
  mutable RemoteLinkStats stats_;
  mutable bool degraded_ = false;
  mutable bool pinned_ = false;
  mutable Rng jitter_;
};

/// Dials `config.address` (one endpoint; "loopback" spins up a throwaway
/// in-process worker), performs the versioned hello handshake, and
/// requests one stats snapshot. Throws TransportError / WireError on
/// failure.
WorkerStatsSnapshot query_worker_status(const RemoteConfig& config);

/// No-op, kept for its only caller, bench_e2e/xbarlife_e2e.cpp.
void set_remote_metrics(obs::Registry* registry);

}  // namespace xbarlife::xbar
