#include "common/shutdown.hpp"

#include <atomic>
#include <csignal>

namespace xbarlife {

namespace {

// The handler may only touch lock-free async-signal-safe state, so the
// signal path and the programmatic path keep separate flags:
//
//   g_signal_flag    written ONLY by the handler. `volatile sig_atomic_t`
//                    is the one type the C/C++ standards guarantee a
//                    handler may store to; everything else (logging,
//                    cleanup, even std::atomic on exotic targets) is off
//                    limits inside the handler and happens on the polling
//                    side instead.
//   g_programmatic   written by request_shutdown()/reset_shutdown() from
//                    ordinary threads (the tests' seams into the flag).
//                    The remote executor's retry loop and the worker
//                    pool only read shutdown_requested(). A std::atomic
//                    keeps those cross-thread writes race-free under
//                    TSan without dragging the handler into atomics.
//
// shutdown_requested() ORs the two. reset_shutdown() clears both; it runs
// from normal context between test cycles, where no signal is in flight.
volatile std::sig_atomic_t g_signal_flag = 0;
std::atomic<bool> g_programmatic{false};
std::atomic<bool> g_installed{false};

extern "C" void handle_shutdown_signal(int signum) {
  if (g_signal_flag != 0) {
    // Second signal: the run is not reaching a checkpoint boundary —
    // restore the default disposition and let the signal kill us.
    // std::signal and std::raise are both async-signal-safe.
    std::signal(signum, SIG_DFL);
    std::raise(signum);
    return;
  }
  g_signal_flag = 1;
}

}  // namespace

void install_signal_handlers() {
  if (g_installed.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
}

bool shutdown_requested() {
  return g_signal_flag != 0 || g_programmatic.load(std::memory_order_relaxed);
}

void request_shutdown() {
  g_programmatic.store(true, std::memory_order_relaxed);
}

void reset_shutdown() {
  g_signal_flag = 0;
  g_programmatic.store(false, std::memory_order_relaxed);
}

}  // namespace xbarlife
