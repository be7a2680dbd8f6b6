// ProgramExecutor: pluggable backends that execute a ProgramSequence
// against a crossbar.
//
// Mirrors the PR 6 kernel registry: the backend is resolved once at
// startup (--executor / XBARLIFE_EXECUTOR, unknown name -> exit 2 with
// the usable list) and stamped into result/bench envelopes as the
// "executor" key. Two backends can be selected:
//
//   sim      (default) column-batched simulator: contiguous pulse runs
//            execute through Crossbar::program_batch, which hoists the
//            per-pulse transcendental math and amortizes tracker and
//            obs-counter updates across the batch.
//   remote   ships each sequence (plus full crossbar state) over a socket
//            to one of a list of worker processes — or in-process
//            loopback workers — with failover, retry/backoff and graceful
//            fallback to `sim` (see xbar/remote.hpp, xbar/pool.hpp). A
//            single address is a list of one. Configured via
//            --remote/--remote-faults or
//            XBARLIFE_REMOTE/XBARLIFE_REMOTE_FAULTS.
//
// PerCellExecutor is not selectable: it is the reference the sim backend
// is checked against (every pulse through the one-call-per-cell
// Crossbar::program_cell path), built directly by the tests and the
// micro benchmarks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xbar/program_sequence.hpp"

namespace xbarlife::xbar {

class Crossbar;

/// Per-op outcome of an executed sequence. `results` is aligned with the
/// sequence ops: achieved resistance for a pulse, read conductance for a
/// verify, 0.0 for waits/barriers.
struct ExecReport {
  std::vector<double> results;
  SequenceStats stats;
};

class ProgramExecutor {
 public:
  virtual ~ProgramExecutor() = default;
  virtual const char* name() const = 0;
  virtual ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const = 0;

  /// True when the backend is running degraded (the remote backend: at
  /// least one sequence fell back to local execution). In-process
  /// backends never degrade.
  virtual bool degraded() const { return false; }

  /// Permanently routes execution to the backend's local fallback path
  /// (the resilience ladder's fallback-executor rung). Returns true on
  /// the transition, false when unsupported or already pinned.
  virtual bool pin_local_fallback() const { return false; }
};

/// Column-batched in-process simulator (default backend).
class SimExecutor final : public ProgramExecutor {
 public:
  const char* name() const override { return "sim"; }
  ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const override;
};

/// Per-cell reference: one program_cell call per pulse. SimExecutor must
/// match it bit for bit (tests/fast_path_oracle_test.cpp).
class PerCellExecutor final : public ProgramExecutor {
 public:
  const char* name() const override { return "percell"; }
  ExecReport execute(Crossbar& xb, const ProgramSequence& seq) const override;
};

/// Returns the process default executor, resolving XBARLIFE_EXECUTOR on
/// first use (throws InvalidArgument for an unknown value). It is only a
/// default: tuning::HardwareNetwork takes the executor it programs
/// through and falls back to this one when none is given.
const ProgramExecutor& select_executor();

/// Activates a backend by name ("sim", "remote"; "" / "auto"
/// -> default). Throws InvalidArgument listing the usable names otherwise.
void set_executor(const std::string& name);

/// Name of the active backend (resolving it if needed).
std::string executor_name();

/// Usable backend names, selection-priority order.
std::vector<std::string> available_executors();

struct RemoteConfig;

/// The remote backend's configuration from XBARLIFE_REMOTE and
/// XBARLIFE_REMOTE_FAULTS; unset variables keep the RemoteConfig
/// defaults (the in-process loopback worker, a clean link).
RemoteConfig remote_config_from_env();

/// Installs (or replaces) the remote backend's configuration. Call before
/// set_executor("remote"); without it, resolving "remote" builds the
/// backend from XBARLIFE_REMOTE / XBARLIFE_REMOTE_FAULTS (defaulting to
/// the in-process loopback worker).
///
/// Replacing destroys the previous remote executor, so this must not be
/// called while a tuning::HardwareNetwork built on the old one is alive:
/// configure first, then build networks.
void configure_remote_executor(const RemoteConfig& config);

/// Degradation summary stamped into result documents.
struct ExecutorDegradation {
  bool degraded = false;
  std::uint64_t fallbacks = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
};

/// Snapshot of the remote backend's degradation state; `degraded` is
/// false when the remote backend was never instantiated or never fell
/// back.
ExecutorDegradation executor_degradation();

/// One endpoint's worth of remote-backend accounting, stamped into the
/// optional "executor_pool" result-envelope key.
struct PoolEndpointSummary {
  std::string address;
  std::string circuit;  ///< "healthy" / "suspect" / "open"
  std::uint64_t requests = 0;       ///< sequences this endpoint completed
  std::uint64_t failovers = 0;      ///< attempts that failed over away
  std::uint64_t circuit_opens = 0;  ///< times its circuit opened
};

/// Pool summary for result documents. `active` exactly when the active
/// backend is the remote one, whatever its endpoint count.
struct ExecutorPoolSummary {
  bool active = false;
  std::vector<PoolEndpointSummary> endpoints;
};

ExecutorPoolSummary executor_pool_summary();

}  // namespace xbarlife::xbar
