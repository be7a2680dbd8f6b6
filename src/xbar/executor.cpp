#include "xbar/executor.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/remote.hpp"

namespace xbarlife::xbar {

ExecReport SimExecutor::execute(Crossbar& xb, const ProgramSequence& seq) const {
  ExecReport report;
  const std::vector<ProgramOp>& ops = seq.ops();
  report.results.assign(ops.size(), 0.0);
  std::size_t i = 0;
  while (i < ops.size()) {
    const ProgramOp& op = ops[i];
    switch (op.kind) {
      case OpKind::kProgramPulse: {
        // Maximal contiguous pulse run -> one batched device transaction.
        std::size_t j = i + 1;
        while (j < ops.size() && ops[j].kind == OpKind::kProgramPulse) ++j;
        xb.program_batch({ops.data() + i, j - i}, {report.results.data() + i, j - i});
        i = j;
        continue;
      }
      case OpKind::kVerifyRead:
        report.results[i] = xb.read_conductance(op.row, op.col);
        break;
      case OpKind::kWait:
      case OpKind::kBarrier:
        break;
    }
    ++i;
  }
  report.stats = seq.stats();
  xb.note_sequence_executed(report.stats);
  return report;
}

ExecReport PerCellExecutor::execute(Crossbar& xb,
                                    const ProgramSequence& seq) const {
  ExecReport report;
  const std::vector<ProgramOp>& ops = seq.ops();
  report.results.assign(ops.size(), 0.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ProgramOp& op = ops[i];
    switch (op.kind) {
      case OpKind::kProgramPulse:
        report.results[i] = xb.program_cell(op.row, op.col, op.value);
        break;
      case OpKind::kVerifyRead:
        report.results[i] = xb.read_conductance(op.row, op.col);
        break;
      case OpKind::kWait:
      case OpKind::kBarrier:
        break;
    }
  }
  report.stats = seq.stats();
  xb.note_sequence_executed(report.stats);
  return report;
}

namespace {

const SimExecutor g_sim;

/// The remote backend carries configuration, so unlike sim it is
/// built on demand: from configure_remote_executor() when the CLI passed
/// flags, else from the environment the first time "remote" resolves.
std::mutex g_remote_mu;
std::unique_ptr<RemoteExecutor> g_remote;

ProgramExecutor& remote_instance() {
  std::lock_guard<std::mutex> lock(g_remote_mu);
  if (g_remote == nullptr) {
    g_remote = std::make_unique<RemoteExecutor>(remote_config_from_env());
  }
  return *g_remote;
}

const ProgramExecutor* resolve(const std::string& name) {
  if (name.empty() || name == "auto" || name == "sim") {
    return &g_sim;
  }
  if (name == "remote") {
    return &remote_instance();
  }
  return nullptr;
}

std::string available_list() {
  std::string out;
  for (const std::string& name : available_executors()) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

std::atomic<const ProgramExecutor*> g_active{nullptr};

/// First-use initialization from XBARLIFE_EXECUTOR. A racing pair of
/// threads would resolve the same value and store the same pointer, so
/// the race is benign.
const ProgramExecutor* init_from_env() {
  const char* env = std::getenv("XBARLIFE_EXECUTOR");
  const std::string name = env != nullptr ? env : "";
  const ProgramExecutor* e = resolve(name);
  if (e == nullptr) {
    throw InvalidArgument("XBARLIFE_EXECUTOR=" + name +
                          " is not a usable executor backend "
                          "(available: " +
                          available_list() + ")");
  }
  g_active.store(e, std::memory_order_release);
  return e;
}

}  // namespace

const ProgramExecutor& select_executor() {
  const ProgramExecutor* e = g_active.load(std::memory_order_acquire);
  if (e == nullptr) {
    e = init_from_env();
  }
  return *e;
}

void set_executor(const std::string& name) {
  const ProgramExecutor* e = resolve(name);
  if (e == nullptr) {
    throw InvalidArgument("unknown or unavailable executor backend '" + name +
                          "' (available: " + available_list() + ")");
  }
  g_active.store(e, std::memory_order_release);
}

std::string executor_name() { return select_executor().name(); }

std::vector<std::string> available_executors() {
  return {"sim", "remote"};
}

RemoteConfig remote_config_from_env() {
  RemoteConfig cfg;
  if (const char* addr = std::getenv("XBARLIFE_REMOTE")) {
    if (addr[0] != '\0') {
      cfg.address = addr;
    }
  }
  if (const char* faults = std::getenv("XBARLIFE_REMOTE_FAULTS")) {
    cfg.fault_spec = faults;
  }
  return cfg;
}

void configure_remote_executor(const RemoteConfig& config) {
  std::lock_guard<std::mutex> lock(g_remote_mu);
  // Keep g_active coherent when the remote backend is being replaced
  // while selected (CLI flag handling configures before set_executor, but
  // tests may re-configure mid-run).
  const ProgramExecutor* old = g_remote.get();
  g_remote = std::make_unique<RemoteExecutor>(config);
  const ProgramExecutor* expected = old;
  g_active.compare_exchange_strong(expected, g_remote.get(),
                                   std::memory_order_acq_rel);
}

ExecutorDegradation executor_degradation() {
  ExecutorDegradation out;
  const RemoteExecutor* remote = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_remote_mu);
    remote = g_remote.get();
  }
  if (remote == nullptr || !remote->degraded()) {
    return out;
  }
  const RemoteLinkStats stats = remote->link_stats();
  out.degraded = true;
  out.fallbacks = stats.fallbacks;
  out.retries = stats.retries;
  out.reconnects = stats.reconnects;
  return out;
}

ExecutorPoolSummary executor_pool_summary() {
  ExecutorPoolSummary out;
  const RemoteExecutor* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_remote_mu);
    pool = g_remote.get();
    // Stamp only when the remote backend is the *active* one: a
    // configured but unselected one must not perturb sim documents.
    if (pool == nullptr || g_active.load(std::memory_order_acquire) != pool) {
      return out;
    }
  }
  out.active = true;
  out.endpoints = pool->endpoint_summaries();
  return out;
}

}  // namespace xbarlife::xbar
