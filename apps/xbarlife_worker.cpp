// xbarlife-worker: remote program-execution worker.
//
// Usage:
//   xbarlife-worker --listen unix:/tmp/xbarlife.sock
//   xbarlife-worker --listen 127.0.0.1:7781
//   xbarlife-worker --listen 127.0.0.1:0          # prints the bound port
//
// Binds the given address and serves xbarlife.wire.v1 connections: each
// kExecute frame carries a full crossbar snapshot plus a ProgramSequence,
// which the worker replays through the deterministic SimExecutor and
// answers with the post-execution state (see docs/programming.md, "Remote
// execution & wire protocol"). Connections are served one at a time per
// thread; each accepted connection gets its own serving thread so a stuck
// client cannot starve the others.
//
// The bound address is printed to stdout as `listening on <addr>` once the
// socket is ready, so scripts can wait for it (and discover an ephemeral
// port). SIGINT/SIGTERM request a graceful stop: in-flight requests finish,
// then the process exits 0.
//
// Exit codes: 0 clean shutdown, 2 bad arguments or a bind that cannot
// succeed as asked (address already bound, unwritable unix socket path —
// the one-line error says what to fix), 3 socket failure after startup,
// 5 internal error.
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/version.hpp"
#include "net/transport.hpp"
#include "xbar/remote.hpp"

namespace {

using namespace std::chrono_literals;

int run(const std::string& address) {
  std::unique_ptr<xbarlife::net::Listener> listener;
  try {
    listener = xbarlife::net::listen(address);
  } catch (const xbarlife::net::TransportError& e) {
    // Startup bind failures are configuration problems, not I/O flakes:
    // one actionable line, exit 2, so supervisors fail fast instead of
    // retrying a socket that can never bind.
    std::cerr << "xbarlife-worker: cannot listen on '" << address
              << "': " << e.what()
              << " (is another worker already bound here, or is the "
                 "socket path not writable?)"
              << std::endl;
    return 2;
  }
  std::cout << "xbarlife-worker " << xbarlife::kBuildVersion << " (wire v"
            << static_cast<int>(xbarlife::net::kWireVersion) << ")\n"
            << "listening on " << listener->address() << std::endl;

  // One serving thread per accepted connection.
  std::mutex mu;
  std::vector<std::thread> threads;
  // One process-wide stats block shared by every serving thread: uptime,
  // request/replay accounting, latency histograms, wire telemetry —
  // queryable live via `xbarlife worker-status`.
  xbarlife::xbar::WorkerStatsState stats;

  while (!xbarlife::shutdown_requested()) {
    std::unique_ptr<xbarlife::net::Transport> conn;
    try {
      conn = listener->accept(200ms);
    } catch (const xbarlife::net::TransportTimeout&) {
      continue;  // poll the shutdown flags
    } catch (const xbarlife::net::TransportError&) {
      break;  // listener closed
    }
    std::lock_guard<std::mutex> lock(mu);
    threads.emplace_back(
        [&stats, c = std::shared_ptr<xbarlife::net::Transport>(
                     std::move(conn))]() mutable {
          xbarlife::xbar::ServeOptions opts;
          opts.idle_poll = 200ms;
          opts.honor_shutdown_flag = true;
          opts.stats = &stats;
          try {
            xbarlife::xbar::serve_connection(*c, opts);
          } catch (const std::exception& e) {
            // A dying connection must not take the worker down.
            std::cerr << "xbarlife-worker: connection error: " << e.what()
                      << std::endl;
          }
          c->close();
        });
  }

  listener->close();
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> lock(mu);
    joinable.swap(threads);
  }
  for (std::thread& t : joinable) {
    t.join();
  }
  return 0;
}

int usage(std::ostream& os) {
  os << "usage: xbarlife-worker --listen <unix:/path | host:port>\n"
        "serves xbarlife.wire.v1 remote program execution; host:0 binds\n"
        "an ephemeral port (reported via 'listening on <addr>')\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string address;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      address = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "xbarlife-worker: unknown argument '" << argv[i] << "'\n";
      return usage(std::cerr);
    }
  }
  if (address.empty()) {
    std::cerr << "xbarlife-worker: --listen is required\n";
    return usage(std::cerr);
  }
  xbarlife::install_signal_handlers();
  try {
    return run(address);
  } catch (const xbarlife::InvalidArgument& e) {
    std::cerr << "xbarlife-worker: " << e.what() << std::endl;
    return 2;
  } catch (const xbarlife::IoError& e) {
    std::cerr << "xbarlife-worker: " << e.what() << std::endl;
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "xbarlife-worker: internal error: " << e.what() << std::endl;
    return 5;
  }
}
