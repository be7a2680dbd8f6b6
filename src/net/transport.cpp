#include "net/transport.hpp"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/parse.hpp"

namespace xbarlife::net {

namespace {

// ---------------------------------------------------------------------------
// In-process pipe transport.

/// One direction of a pipe pair: a byte queue with a close flag. Readers
/// drain buffered bytes even after close, so in-flight messages are not
/// lost when the writer hangs up.
struct PipeChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::string buf;
  /// Bytes of `buf` already read. Reads advance it instead of erasing
  /// the front (which would memmove everything queued behind a frame
  /// header); the buffer is emptied once a read drains it, which the
  /// lockstep request/response protocol does after every frame.
  std::size_t head = 0;
  bool closed = false;

  void push(std::string_view bytes) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) {
        throw TransportError("pipe transport: send on closed pipe");
      }
      buf.append(bytes.data(), bytes.size());
    }
    cv.notify_all();
  }

  void pop_exact(char* dst, std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, timeout,
                     [&] { return buf.size() - head >= n || closed; })) {
      throw TransportTimeout("pipe transport: read timed out");
    }
    if (buf.size() - head < n) {
      throw TransportError("pipe transport: connection closed by peer");
    }
    std::memcpy(dst, buf.data() + head, n);
    head += n;
    if (head == buf.size()) {
      buf.clear();
      head = 0;
    }
  }

  void mark_closed() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

class PipeTransport final : public Transport {
 public:
  PipeTransport(std::shared_ptr<PipeChannel> out,
                std::shared_ptr<PipeChannel> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~PipeTransport() override { close(); }

  void send(std::string_view bytes) override { out_->push(bytes); }

  void recv_exact(char* dst, std::size_t n,
                  std::chrono::milliseconds timeout) override {
    in_->pop_exact(dst, n, timeout);
  }

  void close() override {
    out_->mark_closed();
    in_->mark_closed();
  }

 private:
  std::shared_ptr<PipeChannel> out_;
  std::shared_ptr<PipeChannel> in_;
};

// ---------------------------------------------------------------------------
// POSIX socket transport (TCP + unix stream).

[[noreturn]] void throw_errno(const std::string& context) {
  throw TransportError(context + ": " + std::strerror(errno));
}

/// "unix:/path" or "host:port" (numeric IPv4 or "localhost").
struct ParsedAddress {
  bool is_unix = false;
  std::string path;       // unix
  std::string host;       // tcp
  std::uint16_t port = 0; // tcp
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress out;
  if (address.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = address.substr(5);
    if (out.path.empty()) {
      throw InvalidArgument("empty unix socket path in address '" + address +
                            "'");
    }
    sockaddr_un probe{};
    if (out.path.size() >= sizeof(probe.sun_path)) {
      throw InvalidArgument("unix socket path too long: " + out.path);
    }
    return out;
  }
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    throw InvalidArgument(
        "bad address '" + address +
        "' (expected host:port, unix:/path, or loopback)");
  }
  out.host = address.substr(0, colon);
  if (out.host == "localhost") {
    out.host = "127.0.0.1";
  }
  const std::string what = "port in address '" + address + "'";
  const std::uint64_t port = parse_count(address.substr(colon + 1), what);
  if (port > 65535) {
    throw InvalidArgument(what + ": " + std::to_string(port) +
                          " exceeds 65535");
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

sockaddr_in make_inet_addr(const ParsedAddress& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  if (inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
    throw InvalidArgument("bad IPv4 host '" + a.host +
                          "' (use a numeric address or localhost)");
  }
  return sa;
}

sockaddr_un make_unix_addr(const ParsedAddress& a) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::memcpy(sa.sun_path, a.path.c_str(), a.path.size() + 1);
  return sa;
}

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(int fd) : fd_(fd) {}

  ~SocketTransport() override { close(); }

  void send(std::string_view bytes) override {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("socket send failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void recv_exact(char* dst, std::size_t n,
                  std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (rx_.size() < n) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        throw TransportTimeout("socket read timed out");
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (rc < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("socket poll failed");
      }
      if (rc == 0) {
        throw TransportTimeout("socket read timed out");
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_errno("socket recv failed");
      }
      if (got == 0) {
        throw TransportError("socket: connection closed by peer");
      }
      rx_.append(chunk, static_cast<std::size_t>(got));
    }
    std::memcpy(dst, rx_.data(), n);
    rx_.erase(0, n);
  }

  void close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
  /// Bytes received past what recv_exact() has delivered, so a deadline
  /// expiring mid-message never loses stream position.
  std::string rx_;
};

int new_stream_socket(int family) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket() failed");
  }
  return fd;
}

void enable_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

class SocketListener final : public Listener {
 public:
  SocketListener(int fd, std::string address, bool is_unix,
                 std::string unix_path)
      : fd_(fd),
        address_(std::move(address)),
        is_unix_(is_unix),
        unix_path_(std::move(unix_path)) {}

  ~SocketListener() override { close(); }

  std::unique_ptr<Transport> accept(
      std::chrono::milliseconds timeout) override {
    if (fd_ < 0) {
      throw TransportError("listener is closed");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    if (rc < 0) {
      if (errno == EINTR) {
        throw TransportTimeout("accept interrupted by signal");
      }
      throw_errno("listener poll failed");
    }
    if (rc == 0) {
      throw TransportTimeout("no inbound connection within deadline");
    }
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      throw_errno("accept failed");
    }
    if (!is_unix_) {
      enable_nodelay(conn);
    }
    return std::make_unique<SocketTransport>(conn);
  }

  std::string address() const override { return address_; }

  void close() override {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      if (is_unix_) {
        ::unlink(unix_path_.c_str());
      }
    }
  }

 private:
  int fd_;
  std::string address_;
  bool is_unix_;
  std::string unix_path_;
};

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_pipe() {
  auto a_to_b = std::make_shared<PipeChannel>();
  auto b_to_a = std::make_shared<PipeChannel>();
  return {std::make_unique<PipeTransport>(a_to_b, b_to_a),
          std::make_unique<PipeTransport>(b_to_a, a_to_b)};
}

std::unique_ptr<Transport> dial(const std::string& address,
                                std::chrono::milliseconds timeout) {
  // Local endpoints connect (or refuse) in microseconds, so a blocking
  // connect honours any practical deadline; `timeout` is kept in the
  // signature for future non-local dials.
  (void)timeout;
  const ParsedAddress a = parse_address(address);
  const int fd = new_stream_socket(a.is_unix ? AF_UNIX : AF_INET);
  int rc = 0;
  if (a.is_unix) {
    const sockaddr_un sa = make_unix_addr(a);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  } else {
    const sockaddr_in sa = make_inet_addr(a);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  }
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect to '" + address + "' failed");
  }
  if (!a.is_unix) {
    enable_nodelay(fd);
  }
  return std::make_unique<SocketTransport>(fd);
}

std::unique_ptr<Listener> listen(const std::string& address) {
  const ParsedAddress a = parse_address(address);
  const int fd = new_stream_socket(a.is_unix ? AF_UNIX : AF_INET);
  int rc = 0;
  if (a.is_unix) {
    ::unlink(a.path.c_str());  // replace a stale socket file
    const sockaddr_un sa = make_unix_addr(a);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in sa = make_inet_addr(a);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  }
  if (rc != 0 || ::listen(fd, 8) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen on '" + address + "' failed");
  }
  std::string bound = address;
  if (!a.is_unix) {
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
      bound = a.host + ":" + std::to_string(ntohs(sa.sin_port));
    }
  }
  return std::make_unique<SocketListener>(fd, bound, a.is_unix, a.path);
}

}  // namespace xbarlife::net
