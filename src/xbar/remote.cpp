#include "xbar/remote.hpp"

#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/version.hpp"
#include "net/wire.hpp"
#include "persist/state_io.hpp"
#include "xbar/crossbar.hpp"

namespace xbarlife::xbar {

namespace {

constexpr std::uint8_t kStatsVersion = 1;
/// Wire encoding of obs::kNoSpan in a shipped span tree.
constexpr std::uint64_t kNoSpanWire = ~std::uint64_t{0};

/// Request bytes besides the crossbar state and the sequence's ops: a
/// generous bound, used only to size the request buffer once.
constexpr std::size_t kRequestFixedBytes = 512;

void write_device_params(persist::StateWriter& w,
                         const device::DeviceParams& p) {
  w.f64(p.r_min_fresh);
  w.f64(p.r_max_fresh);
  w.u64(p.levels);
  w.f64(p.v_prog);
  w.f64(p.t_pulse_s);
  w.f64(p.temperature_k);
  w.f64(p.compliance_current_a);
}

device::DeviceParams read_device_params(persist::StateReader& r) {
  device::DeviceParams p;
  p.r_min_fresh = r.f64();
  p.r_max_fresh = r.f64();
  p.levels = static_cast<std::size_t>(r.u64());
  p.v_prog = r.f64();
  p.t_pulse_s = r.f64();
  p.temperature_k = r.f64();
  p.compliance_current_a = r.f64();
  p.validate();
  return p;
}

void write_aging_params(persist::StateWriter& w, const aging::AgingParams& a) {
  w.f64(a.activation_energy_ev);
  w.f64(a.reference_temp_k);
  w.f64(a.reference_current_a);
  w.f64(a.current_exponent);
  w.f64(a.a_f);
  w.f64(a.m_f);
  w.f64(a.a_g);
  w.f64(a.m_g);
  w.f64(a.r_floor);
  w.f64(a.thermal_crosstalk);
}

/// The crossbar state as a length-prefixed string (the layout w.str() of
/// a separate save_state buffer would give), written in place.
void write_state(persist::StateWriter& w, const Crossbar& xb) {
  const std::size_t bytes = xb.state_bytes();
  w.u64(bytes);
  const std::size_t start = w.size();
  xb.save_state(w);
  XB_CHECK(w.size() - start == bytes,
           "crossbar state_bytes() disagrees with save_state");
}

aging::AgingParams read_aging_params(persist::StateReader& r) {
  aging::AgingParams a;
  a.activation_energy_ev = r.f64();
  a.reference_temp_k = r.f64();
  a.reference_current_a = r.f64();
  a.current_exponent = r.f64();
  a.a_f = r.f64();
  a.m_f = r.f64();
  a.a_g = r.f64();
  a.m_g = r.f64();
  a.r_floor = r.f64();
  a.thermal_crosstalk = r.f64();
  return a;
}

}  // namespace

std::string hello_payload() {
  persist::StateWriter w;
  w.u8(net::kWireVersion);
  w.u8(kRequestVersion);
  w.str(kBuildVersion);
  return w.release();
}

PeerHello read_hello(std::string_view payload) {
  persist::StateReader r(payload);
  PeerHello hello;
  hello.wire_version = r.u8();
  hello.request_version = r.u8();
  hello.build = r.str();
  return hello;
}

bool PeerHello::matches() const {
  return wire_version == net::kWireVersion &&
         request_version == kRequestVersion;
}

std::string PeerHello::mismatch(std::string_view self,
                                std::string_view verb) const {
  return "(build " + build + ") speaks wire v" +
         std::to_string(wire_version) + " / execute-request v" +
         std::to_string(request_version) + "; this " + std::string(self) +
         " (build " + std::string(kBuildVersion) + ") " + std::string(verb) +
         " wire v" + std::to_string(net::kWireVersion) +
         " and execute-request v" + std::to_string(kRequestVersion);
}

// ---------------------------------------------------------------------------
// Worker-side protocol handlers.

std::string encode_execute_request(const Crossbar& xb,
                                   const ProgramSequence& seq,
                                   bool want_telemetry,
                                   std::uint64_t trace_id,
                                   std::uint64_t span_id) {
  persist::StateWriter w(kRequestFixedBytes + xb.state_bytes() +
                        seq.size() * ProgramSequence::kOpStateBytes);
  w.u8(kRequestVersion);
  w.u64(xb.rows());
  w.u64(xb.cols());
  write_device_params(w, xb.device_params());
  write_aging_params(w, xb.aging_model().params());
  const NonidealityConfig* cfg = xb.nonideality_config();
  w.boolean(cfg != nullptr);
  if (cfg != nullptr) {
    w.f64(cfg->write_noise_sigma);
    w.f64(cfg->read_noise_sigma);
    w.f64(cfg->stuck_off_fraction);
    w.f64(cfg->stuck_on_fraction);
    w.f64(cfg->line_resistance);
    w.u64(xb.nonideality_seed());
  }
  write_state(w, xb);
  seq.save_state(w);
  w.boolean(want_telemetry);
  w.u64(trace_id);
  w.u64(span_id);
  return w.release();
}

std::string execute_request(std::string_view payload) {
  persist::StateReader r(payload);
  const std::uint8_t version = r.u8();
  if (version != kRequestVersion) {
    throw InvalidArgument("remote execute request version " +
                          std::to_string(version) +
                          " is not supported (this worker speaks v" +
                          std::to_string(kRequestVersion) + ")");
  }
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  const device::DeviceParams dev = read_device_params(r);
  const aging::AgingParams ag = read_aging_params(r);
  const bool has_nonideal = r.boolean();
  NonidealityConfig cfg;
  std::uint64_t nonideal_seed = 0;
  if (has_nonideal) {
    cfg.write_noise_sigma = r.f64();
    cfg.read_noise_sigma = r.f64();
    cfg.stuck_off_fraction = r.f64();
    cfg.stuck_on_fraction = r.f64();
    cfg.line_resistance = r.f64();
    nonideal_seed = r.u64();
  }
  const std::string_view state = r.str_view();
  // Geometry sanity before any allocation: the shipped state serializes
  // every cell at kCellStateBytes bytes, so a count the state cannot back
  // is corrupt (or hostile) and must not drive the array allocation.
  constexpr std::uint64_t kPerCell = Crossbar::kCellStateBytes;
  if (rows == 0 || cols == 0 || rows > state.size() / kPerCell ||
      cols > state.size() / kPerCell ||
      rows * cols > state.size() / kPerCell) {
    throw InvalidArgument(
        "remote execute request geometry " + std::to_string(rows) + "x" +
        std::to_string(cols) + " is not backed by its " +
        std::to_string(state.size()) + "-byte state payload");
  }
  const ProgramSequence seq = ProgramSequence::load_state(r);
  const bool want_telemetry = r.boolean();
  const std::uint64_t trace_id = r.u64();
  const std::uint64_t span_id = r.u64();
  if (!r.done()) {
    throw InvalidArgument("remote execute request has trailing bytes");
  }

  // Per-request telemetry: a private profiler + registry whose entire
  // contents ship back in the response. Span structure and counter values
  // are deterministic; only the wall-clock offsets/durations are not —
  // the same contract the client-side profile export already follows.
  obs::Profiler prof;
  obs::Registry reg;
  const std::size_t request_span =
      want_telemetry ? prof.begin_span("worker.request") : 0;
  const std::size_t rebuild_span =
      want_telemetry ? prof.begin_span("worker.rebuild") : 0;

  Crossbar xb(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
              dev, ag);
  if (has_nonideal) {
    xb.configure_nonideality(cfg, nonideal_seed);
  }
  persist::StateReader sr(state);
  xb.load_state(sr);
  if (!sr.done()) {
    throw InvalidArgument("remote execute request state has trailing bytes");
  }
  if (want_telemetry) {
    prof.end_span(rebuild_span);
  }

  obs::Counter pulses;
  obs::Counter traced;
  xb.attach_pulse_counters(&pulses, &traced);
  if (want_telemetry) {
    xb.attach_executor_counters(&reg.counter("executor.sequences"),
                                &reg.counter("executor.column_batches"));
  }
  const std::size_t execute_span =
      want_telemetry ? prof.begin_span("worker.execute") : 0;
  const ExecReport report = SimExecutor{}.execute(xb, seq);
  if (want_telemetry) {
    prof.add_counter("aging.pulses", pulses.value());
    prof.add_counter("aging.traced_pulses", traced.value());
    prof.end_span(execute_span);
    reg.counter("aging.pulses").add(pulses.value());
    reg.counter("aging.traced_pulses").add(traced.value());
  }

  const std::size_t serialize_span =
      want_telemetry ? prof.begin_span("worker.serialize") : 0;
  persist::StateWriter w(kRequestFixedBytes + xb.state_bytes() +
                        report.results.size() * 8);
  w.u8(kRequestVersion);
  w.u64(pulses.value());
  w.u64(traced.value());
  w.u64(report.results.size());
  if (!report.results.empty()) {
    std::memcpy(w.extend(report.results.size() * 8), report.results.data(),
                report.results.size() * 8);
  }
  write_state(w, xb);
  if (want_telemetry) {
    // Close the whole tree before encoding it; the telemetry encoding
    // itself is the only work the spans cannot cover.
    prof.end_span(serialize_span);
    prof.end_span(request_span);
  }
  w.boolean(want_telemetry);
  if (want_telemetry) {
    w.u64(trace_id);
    w.u64(span_id);
    const auto& records = prof.records();
    w.u64(records.size());
    for (const obs::SpanRecord& rec : records) {
      w.str(rec.name);
      w.u64(rec.parent == obs::kNoSpan ? kNoSpanWire
                                       : static_cast<std::uint64_t>(
                                             rec.parent));
      w.f64(std::chrono::duration<double, std::milli>(rec.start -
                                                      prof.epoch())
                .count());
      w.f64(rec.dur_ms);
      w.u64(rec.counters.size());
      for (const auto& [cname, cvalue] : rec.counters) {
        w.str(cname);
        w.u64(cvalue);
      }
    }
    std::vector<std::pair<std::string, std::uint64_t>> deltas;
    reg.visit_counters([&deltas](const std::string& name,
                                 std::uint64_t value) {
      deltas.emplace_back(name, value);
    });
    w.u64(deltas.size());
    for (const auto& [dname, dvalue] : deltas) {
      w.str(dname);
      w.u64(dvalue);
    }
  }
  return w.release();
}

ExecuteResponse decode_execute_response(std::string_view payload) {
  persist::StateReader r(payload);
  const std::uint8_t version = r.u8();
  if (version != kRequestVersion) {
    throw InvalidArgument("remote execute response version " +
                          std::to_string(version) + " is not supported");
  }
  ExecuteResponse resp;
  resp.pulses = r.u64();
  resp.traced_pulses = r.u64();
  resp.results.resize(r.array_count(8));
  if (!resp.results.empty()) {
    std::memcpy(resp.results.data(), r.take(resp.results.size() * 8),
                resp.results.size() * 8);
  }
  resp.crossbar_state = r.str_view();
  resp.has_telemetry = r.boolean();
  if (resp.has_telemetry) {
    resp.trace_id = r.u64();
    resp.span_id = r.u64();
    // Minimum bytes per span: name len (8) + parent (8) + two f64 (16)
    // + counter count (8); per counter: name len (8) + value (8).
    const std::size_t span_count = r.array_count(40);
    resp.spans.reserve(span_count);
    for (std::size_t i = 0; i < span_count; ++i) {
      obs::Profiler::RemoteSpan span;
      span.name = r.str();
      const std::uint64_t parent = r.u64();
      span.parent = parent == kNoSpanWire
                        ? obs::kNoSpan
                        : static_cast<std::size_t>(parent);
      span.start_offset_ms = r.f64();
      span.dur_ms = r.f64();
      const std::size_t counter_count = r.array_count(16);
      span.counters.reserve(counter_count);
      for (std::size_t c = 0; c < counter_count; ++c) {
        std::string cname = r.str();
        const std::uint64_t cvalue = r.u64();
        span.counters.emplace_back(std::move(cname), cvalue);
      }
      resp.spans.push_back(std::move(span));
    }
    const std::size_t delta_count = r.array_count(16);
    resp.counter_deltas.reserve(delta_count);
    for (std::size_t i = 0; i < delta_count; ++i) {
      std::string dname = r.str();
      const std::uint64_t dvalue = r.u64();
      resp.counter_deltas.emplace_back(std::move(dname), dvalue);
    }
  }
  if (!r.done()) {
    throw InvalidArgument("remote execute response has trailing bytes");
  }
  return resp;
}

std::string WorkerStatsState::encode_snapshot() const {
  const std::uint64_t uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  persist::StateWriter w;
  w.u8(kStatsVersion);
  w.str(kBuildVersion);
  w.u8(net::kWireVersion);
  w.u8(kRequestVersion);
  w.u64(uptime_ms);
  w.u64(requests_served.load(std::memory_order_relaxed));
  w.u64(replay_hits.load(std::memory_order_relaxed));
  w.u64(errors.load(std::memory_order_relaxed));
  w.u64(active_connections.load(std::memory_order_relaxed));
  w.u64(connections_total.load(std::memory_order_relaxed));
  // The registry travels pre-rendered: the client splices the JSON dump
  // verbatim (JsonValue::raw) instead of re-parsing metric structures.
  w.str(metrics.to_json().dump());
  return w.release();
}

WorkerStatsSnapshot decode_worker_stats(std::string_view payload) {
  persist::StateReader r(payload);
  const std::uint8_t version = r.u8();
  if (version != kStatsVersion) {
    throw InvalidArgument("worker stats snapshot version " +
                          std::to_string(version) + " is not supported");
  }
  WorkerStatsSnapshot snap;
  snap.build = r.str();
  snap.wire_version = r.u8();
  snap.request_version = r.u8();
  snap.uptime_ms = r.u64();
  snap.requests_served = r.u64();
  snap.replay_hits = r.u64();
  snap.errors = r.u64();
  snap.active_connections = r.u64();
  snap.connections_total = r.u64();
  snap.metrics_json = r.str();
  if (!r.done()) {
    throw InvalidArgument("worker stats snapshot has trailing bytes");
  }
  return snap;
}

obs::JsonValue WorkerStatsSnapshot::to_json(std::string_view endpoint) const {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", "xbarlife.workerstats.v1");
  doc.set("endpoint", endpoint);
  doc.set("build", build);
  doc.set("wire_version", wire_version);
  doc.set("request_version", request_version);
  doc.set("uptime_ms", uptime_ms);
  doc.set("requests_served", requests_served);
  doc.set("replay_hits", replay_hits);
  doc.set("errors", errors);
  doc.set("active_connections", active_connections);
  doc.set("connections_total", connections_total);
  doc.set("metrics", obs::JsonValue::raw(metrics_json));
  return doc;
}

namespace {

/// Bumps connection gauges for the lifetime of one served connection.
struct ConnectionScope {
  WorkerStatsState* stats;
  explicit ConnectionScope(WorkerStatsState* s) : stats(s) {
    if (stats != nullptr) {
      stats->connections_total.fetch_add(1, std::memory_order_relaxed);
      stats->active_connections.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ~ConnectionScope() {
    if (stats != nullptr) {
      stats->active_connections.fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

}  // namespace

void serve_connection(net::Transport& t, const ServeOptions& opts) {
  // Worker-side frames count into the worker's stats registry (or
  // nowhere).
  obs::Registry* metrics =
      opts.stats != nullptr ? &opts.stats->metrics : nullptr;
  ConnectionScope connection_scope(opts.stats);
  // One-deep idempotent-replay cache: clients retry strictly their most
  // recent request id, so caching the last response suffices to answer a
  // replayed id without re-executing.
  std::uint64_t cached_id = 0;
  std::string cached_response;
  bool has_cached = false;
  for (;;) {
    if ((opts.stop != nullptr &&
         opts.stop->load(std::memory_order_relaxed)) ||
        (opts.honor_shutdown_flag && shutdown_requested())) {
      return;
    }
    net::Frame frame;
    try {
      frame = net::read_frame(t, opts.idle_poll, metrics);
    } catch (const net::TransportTimeout&) {
      continue;  // idle: loop back to the stop-flag checks
    } catch (const net::TransportError&) {
      return;  // peer gone or stream desynced (WireError)
    }
    try {
      switch (frame.type) {
        case net::MsgType::kHello: {
          // The client must speak exactly this worker's wire and
          // execute codec versions; anything else (an empty payload
          // included) is answered with kError.
          std::string mismatch;
          try {
            const PeerHello peer = read_hello(frame.payload);
            if (!peer.matches()) {
              mismatch = "protocol mismatch: client " +
                         peer.mismatch("worker", "speaks");
            }
          } catch (const Error&) {
            mismatch = "malformed hello payload";
          }
          if (!mismatch.empty()) {
            if (opts.stats != nullptr) {
              opts.stats->errors.fetch_add(1, std::memory_order_relaxed);
            }
            persist::StateWriter w;
            w.str(mismatch);
            net::write_frame(t, net::MsgType::kError, frame.seq_id,
                             w.data(), metrics);
            break;
          }
          net::write_frame(t, net::MsgType::kHelloAck, frame.seq_id,
                           hello_payload(), metrics);
          break;
        }
        case net::MsgType::kHeartbeat:
          net::write_frame(t, net::MsgType::kHeartbeatAck, frame.seq_id, {},
                           metrics);
          break;
        case net::MsgType::kExecute: {
          if (has_cached && frame.seq_id == cached_id) {
            // A replay is not fresh work: it answers with the cached bytes
            // under the kExecuteReplay type and counts only into the
            // replay-side accounting (replay_hits + worker.replay_served),
            // never into requests_served — so client and worker totals
            // reconcile instead of double-counting retried sequences.
            if (opts.stats != nullptr) {
              opts.stats->replay_hits.fetch_add(1,
                                                std::memory_order_relaxed);
              opts.stats->metrics.counter("worker.replay_served").add(1);
            }
            net::write_frame(t, net::MsgType::kExecuteReplay, frame.seq_id,
                             cached_response, metrics);
            break;
          }
          {
            const auto started = std::chrono::steady_clock::now();
            try {
              cached_response = execute_request(frame.payload);
              cached_id = frame.seq_id;
              has_cached = true;
            } catch (const Error& e) {
              if (opts.stats != nullptr) {
                opts.stats->errors.fetch_add(1, std::memory_order_relaxed);
              }
              persist::StateWriter w;
              w.str(e.what());
              net::write_frame(t, net::MsgType::kError, frame.seq_id,
                               w.data(), metrics);
              break;
            }
            if (opts.stats != nullptr) {
              opts.stats->requests_served.fetch_add(
                  1, std::memory_order_relaxed);
              opts.stats->metrics.bucketed_histogram("worker.request_ms")
                  .observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - started)
                               .count());
            }
          }
          net::write_frame(t, net::MsgType::kExecuteResult, frame.seq_id,
                           cached_response, metrics);
          break;
        }
        case net::MsgType::kStats: {
          if (opts.stats == nullptr) {
            persist::StateWriter w;
            w.str("worker stats are not enabled on this endpoint");
            net::write_frame(t, net::MsgType::kError, frame.seq_id,
                             w.data(), metrics);
          } else {
            net::write_frame(t, net::MsgType::kStatsAck, frame.seq_id,
                             opts.stats->encode_snapshot(), metrics);
          }
          break;
        }
        default:
          break;  // acks/errors from a confused peer: ignore
      }
    } catch (const net::TransportError&) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// LoopbackWorker.

LoopbackWorker::LoopbackWorker(const net::FaultPlan& plan) : plan_(plan) {}

LoopbackWorker::~LoopbackWorker() { stop(); }

std::unique_ptr<net::Transport> LoopbackWorker::connect() {
  auto [client, server] = net::make_pipe();
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_.load(std::memory_order_relaxed)) {
    throw net::TransportError("loopback worker is stopped");
  }
  // Odd fault streams for the worker->client direction; the client wraps
  // its own end with the even streams, so the two directions of every
  // connection draw independent deterministic schedules.
  const std::uint64_t stream = 2 * connections_ + 1;
  ++connections_;
  std::shared_ptr<net::Transport> served =
      net::maybe_wrap_faulty(std::move(server), plan_, stream);
  threads_.emplace_back([this, served = std::move(served)] {
    ServeOptions opts;
    opts.idle_poll = std::chrono::milliseconds(50);
    opts.stop = &stop_;
    opts.stats = &stats_;
    // The process-wide shutdown flag is handled by the client between
    // retries; the loopback thread must stay alive to serve the sequence
    // in flight so an interrupted run still checkpoints consistently.
    opts.honor_shutdown_flag = false;
    serve_connection(*served, opts);
    served->close();
  });
  return std::move(client);
}

void LoopbackWorker::stop() {
  stop_.store(true, std::memory_order_relaxed);
  std::vector<std::thread> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(threads_);
  }
  for (std::thread& t : drained) {
    t.join();
  }
}

}  // namespace xbarlife::xbar
