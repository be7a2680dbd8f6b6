#include "net/faulty.hpp"

#include <chrono>
#include <thread>

#include "common/parse.hpp"

namespace xbarlife::net {

namespace {

double parse_probability(const std::string& key, const std::string& value) {
  const double p = parse_real(value, "fault spec: " + key);
  if (key != "delay_ms" && (p < 0.0 || p > 1.0)) {
    throw InvalidArgument("fault spec: " + key + "=" + value +
                          " must lie in [0, 1]");
  }
  if (key == "delay_ms" && p < 0.0) {
    throw InvalidArgument("fault spec: delay_ms must be >= 0");
  }
  return p;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("fault spec: expected key=value, got '" + item +
                            "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_count(value, "fault spec: seed");
    } else if (key == "drop") {
      plan.drop = parse_probability(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_probability(key, value);
    } else if (key == "dup") {
      plan.duplicate = parse_probability(key, value);
    } else if (key == "disconnect") {
      plan.disconnect = parse_probability(key, value);
    } else if (key == "delay_ms") {
      plan.delay_ms = parse_probability(key, value);
    } else {
      throw InvalidArgument(
          "fault spec: unknown key '" + key +
          "' (expected seed, drop, corrupt, dup, disconnect, delay_ms)");
    }
  }
  return plan;
}

std::vector<std::string> split_fault_specs(const std::string& spec,
                                           std::size_t n) {
  std::vector<std::string> specs;
  if (spec.find(';') == std::string::npos) {
    specs.assign(n, spec);
    return specs;
  }
  std::size_t pos = 0;
  for (;;) {
    const std::size_t end = spec.find(';', pos);
    specs.push_back(spec.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos));
    if (end == std::string::npos) {
      break;
    }
    pos = end + 1;
  }
  if (specs.size() > n) {
    throw InvalidArgument("fault spec list names " +
                          std::to_string(specs.size()) +
                          " endpoints but the pool has " + std::to_string(n));
  }
  specs.resize(n);  // missing trailing segments are clean links
  return specs;
}

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 const FaultPlan& plan, std::uint64_t stream)
    : inner_(std::move(inner)), plan_(plan), rng_(Rng(plan.seed).fork(stream)) {}

void FaultyTransport::send(std::string_view bytes) {
  ++log_.sent;
  if (cut_) {
    throw TransportError("faulty transport: connection was cut");
  }
  // One draw per knob in fixed order, so a frame's fate depends only on
  // its ordinal position in the stream — the schedule is replayable.
  const bool cut_now = rng_.bernoulli(plan_.disconnect);
  const bool drop_now = rng_.bernoulli(plan_.drop);
  const bool corrupt_now = rng_.bernoulli(plan_.corrupt);
  const bool dup_now = rng_.bernoulli(plan_.duplicate);
  const std::size_t corrupt_at =
      bytes.empty() ? 0
                    : static_cast<std::size_t>(rng_.uniform_int(
                          0, static_cast<std::int64_t>(bytes.size()) - 1));
  if (cut_now) {
    ++log_.disconnects;
    cut_ = true;
    inner_->close();
    throw TransportError("faulty transport: injected disconnect");
  }
  if (drop_now) {
    ++log_.dropped;
    return;
  }
  if (plan_.delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(plan_.delay_ms));
  }
  if (corrupt_now && !bytes.empty()) {
    ++log_.corrupted;
    std::string mutated(bytes);
    mutated[corrupt_at] = static_cast<char>(mutated[corrupt_at] ^ 0x5a);
    inner_->send(mutated);
  } else {
    inner_->send(bytes);
  }
  if (dup_now) {
    ++log_.duplicated;
    inner_->send(bytes);
  }
}

void FaultyTransport::recv_exact(char* dst, std::size_t n,
                                 std::chrono::milliseconds timeout) {
  if (cut_) {
    throw TransportError("faulty transport: connection was cut");
  }
  inner_->recv_exact(dst, n, timeout);
}

void FaultyTransport::close() { inner_->close(); }

std::unique_ptr<Transport> maybe_wrap_faulty(std::unique_ptr<Transport> inner,
                                             const FaultPlan& plan,
                                             std::uint64_t stream) {
  if (!plan.any()) {
    return inner;
  }
  return std::make_unique<FaultyTransport>(std::move(inner), plan, stream);
}

}  // namespace xbarlife::net
