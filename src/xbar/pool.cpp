#include "xbar/pool.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "net/faulty.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "persist/state_io.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/remote.hpp"

namespace xbarlife::xbar {

std::vector<std::string> split_endpoints(const std::string& address) {
  std::vector<std::string> endpoints;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t end = address.find(',', pos);
    std::string entry = address.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    const std::size_t first = entry.find_first_not_of(" \t");
    const std::size_t last = entry.find_last_not_of(" \t");
    entry = first == std::string::npos
                ? std::string()
                : entry.substr(first, last - first + 1);
    if (entry.empty()) {
      throw InvalidArgument(
          "remote endpoint list '" + address +
          "' holds an empty entry (expected comma-separated addresses)");
    }
    endpoints.push_back(std::move(entry));
    if (end == std::string::npos) {
      break;
    }
    pos = end + 1;
  }
  return endpoints;
}

std::uint64_t rendezvous_score(std::uint64_t key, std::string_view endpoint,
                               std::size_t slot) {
  // FNV-1a over the endpoint slot identity, then one splitmix64 round
  // folding in the key: cheap, stateless, and well-mixed enough that
  // ownership spreads evenly across slots.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : endpoint) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= static_cast<std::uint64_t>(slot) + 0x9e3779b97f4a7c15ULL;
  h *= 1099511628211ULL;
  std::uint64_t state = h ^ (key * 0xbf58476d1ce4e5b9ULL);
  return splitmix64(state);
}

std::vector<std::size_t> rendezvous_order(
    std::uint64_t key, const std::vector<std::string>& endpoints) {
  // Score each slot on (address, occurrence-of-that-address) rather than
  // its list position: a unique address keeps its score wherever it sits
  // in the list, which is what makes membership changes move only the
  // removed endpoint's keys. Duplicate addresses (three "loopback"
  // workers) get distinct occurrence indices and still spread load.
  std::vector<std::pair<std::uint64_t, std::size_t>> scored;
  scored.reserve(endpoints.size());
  std::map<std::string_view, std::size_t> occurrence;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    scored.emplace_back(
        rendezvous_score(key, endpoints[i], occurrence[endpoints[i]]++), i);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  std::vector<std::size_t> order;
  order.reserve(scored.size());
  for (const auto& [score, index] : scored) {
    order.push_back(index);
  }
  return order;
}

const char* to_string(CircuitState state) {
  switch (state) {
    case CircuitState::kHealthy:
      return "healthy";
    case CircuitState::kSuspect:
      return "suspect";
    case CircuitState::kOpen:
      return "open";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// CircuitBreaker.

CircuitBreaker::CircuitBreaker(const Config& config, Rng jitter)
    : config_(config),
      jitter_(std::move(jitter)),
      probe_backoff_(config.probe_backoff_initial) {}

std::chrono::milliseconds CircuitBreaker::jittered(
    std::chrono::milliseconds base) {
  const double factor = 0.5 + 0.5 * jitter_.uniform();
  return std::chrono::milliseconds(static_cast<std::int64_t>(
      static_cast<double>(base.count()) * factor));
}

void CircuitBreaker::record_success() {
  state_ = CircuitState::kHealthy;
  consecutive_failures_ = 0;
  probe_backoff_ = config_.probe_backoff_initial;
}

bool CircuitBreaker::record_failure(
    std::chrono::steady_clock::time_point now) {
  ++consecutive_failures_;
  if (state_ == CircuitState::kOpen) {
    // A due half-open probe failed: stay open, double the capped probe
    // backoff so a dead endpoint is bothered less and less often.
    probe_backoff_ =
        std::min(probe_backoff_ * 2, config_.probe_backoff_max);
    probe_after_ = now + jittered(probe_backoff_);
    return false;
  }
  if (consecutive_failures_ >= kFailureThreshold) {
    state_ = CircuitState::kOpen;
    ++opens_;
    probe_backoff_ = config_.probe_backoff_initial;
    probe_after_ = now + jittered(probe_backoff_);
    return true;
  }
  state_ = CircuitState::kSuspect;
  return false;
}

Rng jitter_stream(std::uint64_t index) {
  return Rng(0x9e3779b97f4a7c15ULL).fork(index);
}

// ---------------------------------------------------------------------------
// Endpoint links.

namespace {

/// The message a worker put in a kError frame.
std::string error_text(const net::Frame& frame) {
  persist::StateReader r(frame.payload);
  return r.str();
}

/// Client-side hello-ack validation: rejects a worker that does not speak
/// exactly this build's wire and execute codec versions.
void check_hello_ack(std::string_view payload) {
  PeerHello worker;
  try {
    worker = read_hello(payload);
  } catch (const Error&) {
    throw net::WireError("remote worker sent a malformed hello ack payload");
  }
  if (!worker.matches()) {
    throw net::WireError("remote worker " + worker.mismatch("client", "needs"));
  }
}

/// One endpoint's connection: dials the address (or an in-process
/// loopback worker), proves the peer speaks this build's protocol with
/// the versioned hello, and matches response frames by id. Frames count
/// into the registry each call is handed (the executing array's, or
/// none). Retry, failover and fallback belong to the executor. Not
/// thread-safe: the owner serializes access.
class Link {
 public:
  Link(std::string address, const std::string& fault_spec,
       const RemoteConfig& config, std::atomic<std::uint64_t>& ids)
      : address_(std::move(address)),
        fault_plan_(net::FaultPlan::parse(fault_spec)),
        config_(config),
        ids_(ids) {}

  ~Link() { drop(); }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  bool connected() const { return transport_ != nullptr; }
  net::Transport& transport() { return *transport_; }
  std::uint64_t next_id() { return ++ids_; }

  /// Connects and handshakes unless already connected. Returns true when
  /// this re-established a dropped connection. A failed dial or
  /// handshake leaves the link disconnected.
  bool connect(obs::Registry* metrics) {
    if (transport_ != nullptr) {
      return false;
    }
    std::unique_ptr<net::Transport> t;
    if (address_ == "loopback") {
      if (loopback_ == nullptr) {
        loopback_ = std::make_unique<LoopbackWorker>(fault_plan_);
      }
      t = loopback_->connect();
    } else {
      t = net::dial(address_, config_.dial_timeout);
    }
    // Even fault streams: the loopback worker wraps its end of every
    // connection with the odd ones, so the two directions draw
    // independent deterministic schedules.
    transport_ =
        net::maybe_wrap_faulty(std::move(t), fault_plan_, 2 * connections_);
    const bool reconnect = connections_++ > 0;
    try {
      const std::uint64_t id = next_id();
      net::write_frame(*transport_, net::MsgType::kHello, id,
                       hello_payload(), metrics);
      const net::Frame ack =
          read_matching(net::MsgType::kHelloAck, id,
                        std::chrono::steady_clock::now() +
                            config_.request_deadline,
                        metrics);
      if (ack.type == net::MsgType::kError) {
        throw net::WireError("remote worker refused the handshake: " +
                             error_text(ack));
      }
      check_hello_ack(ack.payload);
    } catch (...) {
      drop();
      throw;
    }
    return reconnect;
  }

  void drop() {
    if (transport_ != nullptr) {
      transport_->close();
      transport_.reset();
    }
  }

  /// Reads until a frame with `want_id` arrives as `want` or kError (a
  /// kExecuteReplay satisfies a kExecuteResult wait: same payload,
  /// distinct type so the caller can account it as a replay). Stale
  /// frames — duplicated or late earlier responses — are skipped.
  net::Frame read_matching(net::MsgType want, std::uint64_t want_id,
                           std::chrono::steady_clock::time_point deadline,
                           obs::Registry* metrics) {
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        throw net::TransportTimeout(
            "remote executor: no response within the request deadline");
      }
      net::Frame frame = net::read_frame(*transport_, left, metrics);
      if (frame.seq_id == want_id &&
          (frame.type == want || frame.type == net::MsgType::kError ||
           (want == net::MsgType::kExecuteResult &&
            frame.type == net::MsgType::kExecuteReplay))) {
        return frame;
      }
    }
  }

  /// One heartbeat round trip on the current connection, bounded by the
  /// request deadline and at most 250 ms.
  bool heartbeat(obs::Registry* metrics) {
    try {
      const std::uint64_t id = next_id();
      net::write_frame(*transport_, net::MsgType::kHeartbeat, id, {},
                       metrics);
      read_matching(net::MsgType::kHeartbeatAck, id,
                    std::chrono::steady_clock::now() +
                        std::min(config_.request_deadline,
                                 std::chrono::milliseconds(250)),
                    metrics);
      return true;
    } catch (const net::TransportError&) {
      return false;
    }
  }

 private:
  std::string address_;
  net::FaultPlan fault_plan_;
  const RemoteConfig& config_;
  std::atomic<std::uint64_t>& ids_;
  std::unique_ptr<LoopbackWorker> loopback_;
  std::unique_ptr<net::Transport> transport_;
  std::uint64_t connections_ = 0;
};

/// A client-side profiler span, closed on every exit path. These spans
/// are profiler-only: no trace events, no metrics.
struct SpanGuard {
  obs::Profiler* profiler;
  std::size_t index = 0;
  SpanGuard(obs::Profiler* p, std::string_view name) : profiler(p) {
    if (profiler != nullptr) {
      index = profiler->begin_span(name);
    }
  }
  ~SpanGuard() {
    if (profiler != nullptr) {
      profiler->end_span(index);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// RemoteExecutor.

struct RemoteExecutor::Reply {
  net::Frame frame;
  std::chrono::steady_clock::time_point sent_at;  ///< request went out
};

struct RemoteExecutor::Endpoint {
  std::string prefix;  ///< "executor.remote.<i>." metric-name prefix
  std::mutex io_mu;    ///< serializes `link` and `timed_out`
  Link link;
  /// The last attempt timed out on a connection that is still open.
  bool timed_out = false;
  std::atomic<std::uint64_t> reconnects{0};
  CircuitBreaker circuit;       ///< guarded by the executor mutex
  std::uint64_t requests = 0;   ///< completed sequences
  std::uint64_t failovers = 0;  ///< failed attempts

  Endpoint(std::string address, std::size_t index,
           const std::string& fault_spec, const RemoteConfig& config,
           std::atomic<std::uint64_t>& ids, CircuitBreaker c)
      : prefix("executor.remote." + std::to_string(index) + "."),
        link(std::move(address), fault_spec, config, ids),
        circuit(std::move(c)) {}

  /// Lazily creates per-endpoint telemetry in `reg` (no-op when null).
  void count(obs::Registry* reg, const char* suffix) const {
    if (reg != nullptr) {
      reg->counter(prefix + suffix).add(1);
    }
  }

  /// Publishes the circuit state. Called only on state *transitions*, so
  /// fault-free runs emit no circuit gauges.
  void publish_circuit(obs::Registry* reg) const {
    if (reg != nullptr) {
      reg->gauge(prefix + "circuit_state")
          .set(static_cast<double>(static_cast<std::uint8_t>(circuit.state())));
    }
  }

  void connect(obs::Registry* reg) {
    if (link.connect(reg)) {
      reconnects.fetch_add(1, std::memory_order_relaxed);
      count(reg, "reconnects");
    }
  }

  /// Half-open re-admission: proves the endpoint answers a heartbeat
  /// before it is trusted with a (large) full-state request.
  bool probe(obs::Registry* reg) {
    std::lock_guard<std::mutex> lock(io_mu);
    try {
      connect(reg);
    } catch (const net::TransportError&) {
      return false;
    }
    if (!link.heartbeat(reg)) {
      link.drop();
      return false;
    }
    timed_out = false;
    return true;
  }

  /// Ships one request and waits for its response. A timeout keeps the
  /// connection: the next attempt here proves it alive with a heartbeat
  /// and re-sends the same id, which the worker answers from its replay
  /// cache. Any other transport error drops the connection.
  Reply attempt(std::uint64_t id, std::string_view frame,
                std::chrono::milliseconds deadline, obs::Registry* reg) {
    std::lock_guard<std::mutex> lock(io_mu);
    try {
      connect(reg);
      if (timed_out && !link.heartbeat(reg)) {
        link.drop();
        connect(reg);
      }
      timed_out = false;
      const auto sent_at = std::chrono::steady_clock::now();
      net::send_frame(link.transport(), frame, reg);
      return {link.read_matching(net::MsgType::kExecuteResult, id,
                                 sent_at + deadline, reg),
              sent_at};
    } catch (const net::TransportTimeout&) {
      timed_out = link.connected();
      throw;
    } catch (const net::TransportError&) {
      link.drop();
      throw;
    }
  }
};

RemoteExecutor::RemoteExecutor(RemoteConfig config)
    : config_(std::move(config)),
      addresses_(split_endpoints(config_.address)),
      jitter_(jitter_stream(0)) {
  if (config_.max_attempts < 1) {
    throw InvalidArgument("remote executor: max_attempts must be >= 1");
  }
  const std::vector<std::string> specs =
      net::split_fault_specs(config_.fault_spec, addresses_.size());
  const CircuitBreaker::Config breaker{config_.probe_backoff_initial,
                                       config_.probe_backoff_max};
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>(
        addresses_[i], i, specs[i], config_, next_id_,
        CircuitBreaker(breaker, jitter_stream(1 + i))));
  }
}

RemoteExecutor::~RemoteExecutor() = default;

void RemoteExecutor::backoff_sleep(int round) const {
  // Exponential base capped at backoff_max, jittered by a factor in
  // [0.5, 1.0) so a fleet of clients does not retry in lockstep. The
  // sleep runs in small slices polling the cooperative shutdown flag, so
  // SIGINT never hangs in a backoff.
  std::chrono::milliseconds base = config_.backoff_initial;
  for (int i = 1; i < round && base < config_.backoff_max; ++i) {
    base *= 2;
  }
  base = std::min(base, config_.backoff_max);
  double factor = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    factor = 0.5 + 0.5 * jitter_.uniform();
  }
  auto remaining = std::chrono::milliseconds(
      static_cast<std::int64_t>(static_cast<double>(base.count()) * factor));
  constexpr std::chrono::milliseconds kSlice{10};
  while (remaining.count() > 0) {
    if (shutdown_requested()) {
      throw InterruptedError(
          "shutdown requested during remote executor retry backoff");
    }
    const auto nap = std::min(remaining, kSlice);
    std::this_thread::sleep_for(nap);
    remaining -= nap;
  }
}

ExecReport RemoteExecutor::execute(Crossbar& xb,
                                   const ProgramSequence& seq) const {
  // With a profiler attached the request carries a trace context and asks
  // the worker to profile itself; the worker's span tree grafts under
  // this client-side span, next to the client's own encode / frame /
  // wait / decode / restore phases, so one --profile run shows the codec
  // against the worker's rebuild/execute/serialize.
  obs::Profiler* profiler = xb.profiler();
  obs::Registry* reg = xb.metrics();
  const SpanGuard span(profiler, "executor.remote.execute");
  bool degraded = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    degraded = degraded_;
  }
  // One id per logical request, reused on every attempt and endpoint: the
  // worker's replay key and the trace id it echoes back. The frame (and
  // its CRC) is therefore encoded once and re-sent as is.
  const std::uint64_t id = ++next_id_;
  Reply reply;
  Endpoint* ep = nullptr;
  if (!degraded) {
    std::string frame;
    {
      std::string payload;
      {
        const SpanGuard encode(profiler, "executor.remote.encode");
        payload = encode_execute_request(
            xb, seq, profiler != nullptr, id,
            profiler != nullptr ? span.index : 0);
      }
      const SpanGuard framing(profiler, "executor.remote.frame");
      frame = net::encode_frame(net::MsgType::kExecute, id, payload);
    }
    const SpanGuard wait(profiler, "executor.remote.wait");
    ep = exchange(xb.owner_key(), id, frame, reg, reply);
  }
  if (ep == nullptr) {
    // Degradation: no attempt mutated local state (every attempt shipped
    // the same pre-state), so executing locally now yields exactly what
    // any worker would have produced. The first fallback pins the
    // executor: every later sequence lands here without dialing.
    {
      std::lock_guard<std::mutex> lock(mu_);
      degraded_ = true;
      ++stats_.fallbacks;
    }
    if (reg != nullptr) {
      reg->counter("executor.remote.fallbacks").add(1);
    }
    return SimExecutor{}.execute(xb, seq);
  }
  // A worker-side rejection is deterministic: every endpoint runs the
  // same code on the same bits, so it is raised, never failed over.
  if (reply.frame.type == net::MsgType::kError) {
    throw RemoteWorkerError("remote worker rejected the request: " +
                            error_text(reply.frame));
  }
  ExecuteResponse resp;
  {
    const SpanGuard decode(profiler, "executor.remote.decode");
    resp = decode_execute_response(reply.frame.payload);
  }
  if (reg != nullptr) {
    // Fresh work and replay-cache hits account separately on both sides
    // of the wire (the worker marks hits with kExecuteReplay), so
    // <prefix>requests only counts sequences the worker actually executed
    // and totals reconcile with worker-status.
    reg->counter(ep->prefix +
                 (reply.frame.type == net::MsgType::kExecuteReplay
                      ? "replay_served"
                      : "requests"))
        .add(1);
    reg->bucketed_histogram(ep->prefix + "request_ms")
        .observe(ms_since(reply.sent_at));
  }
  {
    const SpanGuard restore(profiler, "executor.remote.restore");
    persist::StateReader sr(resp.crossbar_state);
    xb.load_state(sr);
    xb.credit_pulse_counters(resp.pulses, resp.traced_pulses);
  }
  if (profiler != nullptr && resp.has_telemetry && resp.trace_id == id) {
    // Exactly one graft per logical request: only the one successful
    // decode reaches here, a replay-cache hit returns the original
    // telemetry, and the degraded fallback path ships none.
    profiler->graft(resp.spans, reply.sent_at);
    if (reg != nullptr) {
      for (const auto& [name, value] : resp.counter_deltas) {
        // Namespaced: the client already credits pulse counters from
        // the response, so the raw names would double-count.
        reg->counter("worker." + name).add(value);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool was_healthy = ep->circuit.state() == CircuitState::kHealthy;
    ep->circuit.record_success();
    if (!was_healthy) {
      ep->publish_circuit(reg);
    }
    ++ep->requests;
  }
  ExecReport report;
  report.results = std::move(resp.results);
  report.stats = seq.stats();
  xb.note_sequence_executed(report.stats);
  return report;
}

RemoteExecutor::Endpoint* RemoteExecutor::exchange(
    std::uint64_t owner_key, std::uint64_t id, std::string_view frame,
    obs::Registry* reg, Reply& reply) const {
  // The owner and failover order are a pure function of the array's owner
  // key and the endpoint list: the same array always prefers the same
  // worker, and membership changes move only the keys the changed endpoint
  // owned.
  const std::vector<std::size_t> order =
      rendezvous_order(owner_key, addresses_);
  bool first_attempt = true;
  // One budget round = one pass over the live endpoints. Failing over to
  // the next endpoint is free; only "everyone failed" burns a round.
  // Cooperative shutdown is honored between rounds (backoff_sleep polls
  // the flag), never before a healthy first attempt: a requested shutdown
  // must not strand an in-progress session that a working link would
  // complete — checkpointing loops handle the flag at their own snapshot
  // boundaries.
  for (int round = 0; round < config_.max_attempts; ++round) {
    if (round > 0) {
      backoff_sleep(round);
    }
    // Candidate pass under the lock: admitted endpoints in preference
    // order. When every circuit is open and none is probe-due yet, fall
    // through to the full order — the executor must keep knocking rather
    // than silently degrade while workers might be back.
    std::vector<std::size_t> candidates;
    std::vector<bool> needs_probe(endpoints_.size(), false);
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = std::chrono::steady_clock::now();
      for (const std::size_t i : order) {
        if (endpoints_[i]->circuit.admits(now)) {
          candidates.push_back(i);
          needs_probe[i] =
              endpoints_[i]->circuit.state() == CircuitState::kOpen;
        }
      }
      if (candidates.empty()) {
        candidates = order;
        needs_probe.assign(endpoints_.size(), true);
      }
    }
    for (const std::size_t i : candidates) {
      Endpoint& ep = *endpoints_[i];
      if (needs_probe[i] && !ep.probe(reg)) {
        std::lock_guard<std::mutex> lock(mu_);
        ep.circuit.record_failure(std::chrono::steady_clock::now());
        ep.publish_circuit(reg);
        continue;
      }
      if (!first_attempt) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.retries;
      }
      first_attempt = false;
      try {
        reply = ep.attempt(id, frame, config_.request_deadline, reg);
        return &ep;
      } catch (const net::TransportError&) {
        std::lock_guard<std::mutex> lock(mu_);
        ++ep.failovers;
        ep.count(reg, "failovers");
        if (ep.circuit.record_failure(std::chrono::steady_clock::now())) {
          ep.count(reg, "circuit_opens");
        }
        ep.publish_circuit(reg);
      }
    }
  }
  return nullptr;
}

bool RemoteExecutor::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

RemoteLinkStats RemoteExecutor::link_stats() const {
  RemoteLinkStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  for (const auto& ep : endpoints_) {
    out.reconnects += ep->reconnects.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<PoolEndpointSummary> RemoteExecutor::endpoint_summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PoolEndpointSummary> out;
  out.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const Endpoint* ep = endpoints_[i].get();
    PoolEndpointSummary summary;
    summary.address = addresses_[i];
    summary.circuit = to_string(ep->circuit.state());
    summary.requests = ep->requests;
    summary.failovers = ep->failovers;
    summary.circuit_opens = ep->circuit.opens();
    out.push_back(std::move(summary));
  }
  return out;
}

WorkerStatsSnapshot query_worker_status(const RemoteConfig& config) {
  std::atomic<std::uint64_t> ids{0};
  Link link(config.address, config.fault_spec, config, ids);
  link.connect(nullptr);
  const std::uint64_t id = link.next_id();
  net::write_frame(link.transport(), net::MsgType::kStats, id);
  const net::Frame stats = link.read_matching(
      net::MsgType::kStatsAck, id,
      std::chrono::steady_clock::now() + config.request_deadline, nullptr);
  if (stats.type == net::MsgType::kError) {
    throw net::WireError("remote worker cannot answer a stats request: " +
                         error_text(stats));
  }
  return decode_worker_stats(stats.payload);
}

void set_remote_metrics(obs::Registry* /*registry*/) {}

}  // namespace xbarlife::xbar
