// Cooperative shutdown for long runs.
//
// install_signal_handlers() arms SIGINT/SIGTERM to set a process-wide
// flag instead of killing the process; checkpointing loops poll
// shutdown_requested() at their snapshot boundaries, write a final
// snapshot, and raise InterruptedError (CLI exit 6). A second signal
// restores the default disposition and re-raises, so an unresponsive run
// can still be killed the usual way.
#pragma once

namespace xbarlife {

/// Arms SIGINT/SIGTERM to request a cooperative shutdown. Idempotent.
void install_signal_handlers();

/// True once a shutdown has been requested (by a signal or explicitly).
bool shutdown_requested();

/// Requests a shutdown programmatically (the tests' interrupt seam).
void request_shutdown();

/// Clears the flag (tests re-running the interrupt/resume cycle).
void reset_shutdown();

}  // namespace xbarlife
