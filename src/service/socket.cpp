#include "service/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/chaos.hpp"
#include "service/protocol.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"

namespace lbs::service {

namespace {

constexpr std::size_t kHeaderBytes = 8;  // u32 length | u32 crc32

[[noreturn]] void raise_errno(const std::string& what) {
  throw lbs::Error("service socket: " + what + ": " + std::strerror(errno));
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(address.sun_path)) {
    // Operator error, not a broken invariant: a daemon handed a bad
    // --socket flag reports this and exits instead of crashing.
    throw Error("service socket: path too long for sockaddr_un (" +
                std::to_string(path.size()) + " bytes, max " +
                std::to_string(sizeof(address.sun_path) - 1) + "): " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

// Nagle off for the framed request/response pattern; a no-op (ignored
// error) on Unix-domain fds, so accept paths can call it unconditionally.
void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Resolved addrinfo list for a TCP endpoint, freed by the caller via
// freeaddrinfo. Throws service::Error when the host does not resolve.
addrinfo* resolve_tcp(const Endpoint& endpoint, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* result = nullptr;
  std::string service = std::to_string(endpoint.port);
  const char* node = endpoint.host.empty() ? nullptr : endpoint.host.c_str();
  int rc = ::getaddrinfo(node, service.c_str(), &hints, &result);
  if (rc != 0) {
    throw Error("service socket: cannot resolve " + endpoint.to_string() +
                ": " + ::gai_strerror(rc));
  }
  return result;
}

// Waits until fd is ready for `events` or `deadline` passes; false on
// the latter. Called only after a recv/send found nothing to do. A
// shutdown(2) on fd wakes it (the socket reads as EOF).
bool wait_ready(int fd, short events, IoDeadline deadline) {
  while (true) {
    int budget = -1;  // no deadline: wait for readiness or shutdown
    if (deadline != no_deadline()) {
      auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      budget = static_cast<int>(
          std::min<long long>(left.count(), std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd, events, 0};
    int ready = ::poll(&pfd, 1, budget);
    if (ready > 0) return true;  // ready, HUP, or error: the op resolves it
    if (ready < 0 && errno != EINTR) raise_errno("poll");
  }
}

// Applies an injected fault that precedes a recv attempt. Returns the
// byte cap for this attempt (>= 1 unless disconnected).
std::size_t apply_read_faults(int fd, std::size_t size) {
  FaultInjector* injector = fault_injector();
  if (injector == nullptr) return size;
  FaultInjector::ReadAction action = injector->on_read(size);
  if (action.stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(action.stall_ms));
  }
  if (action.disconnect) ::shutdown(fd, SHUT_RDWR);
  return std::min(action.max_bytes, size);
}

// Reads exactly `size` bytes by `deadline`. When `frame_timeout_ms` is
// set, the first byte read tightens `deadline` to that long after it.
IoStatus read_exact(int fd, std::uint8_t* data, std::size_t size,
                    IoDeadline& deadline, std::uint32_t frame_timeout_ms) {
  std::size_t done = 0;
  while (done < size) {
    std::size_t cap = apply_read_faults(fd, size - done);
    ssize_t got = ::recv(fd, data + done, cap, MSG_DONTWAIT);
    if (got > 0) {
      if (done == 0 && frame_timeout_ms > 0) {
        deadline = std::min(deadline, deadline_after_ms(frame_timeout_ms));
      }
      done += static_cast<std::size_t>(got);
    } else if (got == 0 || errno == ECONNRESET) {
      return IoStatus::Closed;  // EOF (the peer closed, or shutdown(2)) or reset
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait_ready(fd, POLLIN, deadline)) return IoStatus::TimedOut;
    } else if (errno != EINTR) {
      raise_errno("recv");
    }
  }
  return IoStatus::Ok;
}

// Writes exactly `size` bytes by `deadline`.
IoStatus write_exact(int fd, const std::uint8_t* data, std::size_t size,
                     IoDeadline deadline) {
  std::size_t done = 0;
  std::vector<std::uint8_t> scratch;  // only allocated when a fault corrupts
  while (done < size) {
    const std::uint8_t* chunk = data + done;
    std::size_t chunk_size = size - done;
    if (FaultInjector* injector = fault_injector(); injector != nullptr) {
      FaultInjector::WriteAction action = injector->on_write(chunk_size);
      if (action.stall_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(action.stall_ms));
      }
      if (action.disconnect) ::shutdown(fd, SHUT_RDWR);
      chunk_size = std::min(action.max_bytes, chunk_size);
      if (action.corrupt) {
        scratch.assign(chunk, chunk + chunk_size);
        scratch[action.corrupt_offset % chunk_size] ^= action.corrupt_mask;
        chunk = scratch.data();
      }
    }

    ssize_t put = ::send(fd, chunk, chunk_size, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (put >= 0) {
      done += static_cast<std::size_t>(put);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait_ready(fd, POLLOUT, deadline)) return IoStatus::TimedOut;
    } else if (errno == EPIPE || errno == ECONNRESET) {
      return IoStatus::Closed;
    } else if (errno != EINTR) {
      raise_errno("send");
    }
  }
  return IoStatus::Ok;
}

void put_le32(std::uint8_t* out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t get_le32(const std::uint8_t* in) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

}  // namespace

Endpoint Endpoint::unix_path(std::string socket_path) {
  Endpoint endpoint;
  endpoint.kind = Kind::Unix;
  endpoint.path = std::move(socket_path);
  return endpoint;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint endpoint;
  endpoint.kind = Kind::Tcp;
  endpoint.host = std::move(host);
  endpoint.port = port;
  return endpoint;
}

namespace {

// "host:port" with a numeric in-range port after the LAST colon (so
// "[::1]-style" bracketed v6 is not needed for the common cases, and
// "tcp:host:port" splits correctly after the prefix is stripped).
bool parse_host_port(const std::string& spec, Endpoint& out) {
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return false;
  }
  long long port = 0;
  for (std::size_t i = colon + 1; i < spec.size(); ++i) {
    if (spec[i] < '0' || spec[i] > '9') return false;
    port = port * 10 + (spec[i] - '0');
    if (port > 65535) return false;
  }
  if (port <= 0) return false;
  out = Endpoint::tcp(spec.substr(0, colon), static_cast<std::uint16_t>(port));
  return true;
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  if (spec.empty()) throw Error("service socket: empty endpoint spec");
  if (spec.rfind("unix:", 0) == 0) return unix_path(spec.substr(5));
  if (spec.rfind("tcp:", 0) == 0) {
    Endpoint endpoint;
    if (!parse_host_port(spec.substr(4), endpoint)) {
      throw Error("service socket: bad tcp endpoint (want tcp:host:port): " +
                  spec);
    }
    return endpoint;
  }
  // A filesystem path never needs a trailing :port, so host:port wins the
  // ambiguity; anything else is a unix path.
  Endpoint endpoint;
  if (parse_host_port(spec, endpoint)) return endpoint;
  return unix_path(spec);
}

std::string Endpoint::to_string() const {
  switch (kind) {
    case Kind::Unix:
      return "unix:" + path;
    case Kind::Tcp:
      return "tcp:" + host + ":" + std::to_string(port);
    case Kind::None:
      return "<invalid endpoint>";
  }
  return "<invalid endpoint>";
}

std::vector<Endpoint> parse_endpoint_list(const std::string& spec) {
  std::vector<Endpoint> endpoints;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t comma = spec.find(',', begin);
    if (comma == std::string::npos) comma = spec.size();
    std::string one = spec.substr(begin, comma - begin);
    if (!one.empty()) endpoints.push_back(Endpoint::parse(one));
    begin = comma + 1;
  }
  if (endpoints.empty()) {
    throw Error("service socket: empty endpoint list: " + spec);
  }
  return endpoints;
}

IoDeadline deadline_after_ms(std::uint32_t ms) {
  if (ms == 0) return no_deadline();
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

namespace {

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un address = make_address(path);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    raise_errno("bind " + path);
  }
  if (::listen(fd, backlog) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    raise_errno("listen " + path);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un address = make_address(path);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0) {
    int saved = errno;
    ::close(fd);
    if (saved == ENOENT || saved == ECONNREFUSED) return -1;
    errno = saved;
    raise_errno("connect " + path);
  }
  return fd;
}

int listen_tcp(Endpoint& endpoint, int backlog) {
  addrinfo* addresses = resolve_tcp(endpoint, /*passive=*/true);
  int fd = -1;
  int saved = 0;
  for (addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, backlog) == 0) {
      // Port 0 asked the kernel to pick: report the real one back so the
      // caller can hand peers a dialable endpoint.
      if (endpoint.port == 0) {
        sockaddr_storage bound{};
        socklen_t bound_len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) == 0) {
          if (bound.ss_family == AF_INET) {
            endpoint.port = ntohs(
                reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
          } else if (bound.ss_family == AF_INET6) {
            endpoint.port = ntohs(
                reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
          }
        }
      }
      ::freeaddrinfo(addresses);
      return fd;
    }
    saved = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addresses);
  errno = saved;
  raise_errno("bind/listen " + endpoint.to_string());
}

int connect_tcp(const Endpoint& endpoint) {
  addrinfo* addresses = resolve_tcp(endpoint, /*passive=*/false);
  int saved = 0;
  for (addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      ::freeaddrinfo(addresses);
      return fd;
    }
    saved = errno;
    ::close(fd);
  }
  ::freeaddrinfo(addresses);
  if (saved == ECONNREFUSED || saved == ETIMEDOUT || saved == EHOSTUNREACH ||
      saved == ENETUNREACH || saved == EADDRNOTAVAIL) {
    return -1;  // nobody serving there right now — the caller's retry loop owns it
  }
  errno = saved;
  raise_errno("connect " + endpoint.to_string());
}

}  // namespace

int listen_endpoint(Endpoint& endpoint, int backlog) {
  switch (endpoint.kind) {
    case Endpoint::Kind::Unix:
      return listen_unix(endpoint.path, backlog);
    case Endpoint::Kind::Tcp:
      return listen_tcp(endpoint, backlog);
    case Endpoint::Kind::None:
      break;
  }
  throw Error("service socket: cannot listen on an invalid endpoint");
}

int connect_endpoint(const Endpoint& endpoint) {
  switch (endpoint.kind) {
    case Endpoint::Kind::Unix:
      return connect_unix(endpoint.path);
    case Endpoint::Kind::Tcp:
      return connect_tcp(endpoint);
    case Endpoint::Kind::None:
      break;
  }
  throw Error("service socket: cannot connect to an invalid endpoint");
}

int accept_connection(int listen_fd) {
  while (true) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno != EINTR && errno != ECONNABORTED) return -1;  // shut down
  }
}

IoStatus send_frame(int fd, const std::vector<std::uint8_t>& payload,
                    IoDeadline deadline) {
  LBS_CHECK_MSG(payload.size() <= kMaxFrameBytes, "frame exceeds kMaxFrameBytes");
  std::vector<std::uint8_t> frame(kHeaderBytes + payload.size());
  put_le32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_le32(frame.data() + 4, support::crc32(payload));
  std::copy(payload.begin(), payload.end(), frame.begin() + kHeaderBytes);
  return write_exact(fd, frame.data(), frame.size(), deadline);
}

IoStatus recv_frame(int fd, std::vector<std::uint8_t>& payload,
                    IoDeadline deadline, std::uint32_t frame_timeout_ms) {
  std::uint8_t header[kHeaderBytes];
  IoStatus got = read_exact(fd, header, sizeof(header), deadline, frame_timeout_ms);
  if (got != IoStatus::Ok) return got;
  std::uint32_t length = get_le32(header);
  std::uint32_t expected_crc = get_le32(header + 4);
  LBS_CHECK_MSG(length <= kMaxFrameBytes, "frame length exceeds kMaxFrameBytes");
  payload.resize(length);
  if (length > 0) {
    got = read_exact(fd, payload.data(), length, deadline, 0);
    if (got != IoStatus::Ok) return got;
  }
  // A mismatch means bytes flipped in flight (or a desynchronized or
  // hostile peer); the stream cannot be trusted past this point.
  LBS_CHECK_MSG(support::crc32(payload) == expected_crc,
                "frame checksum mismatch");
  return IoStatus::Ok;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace lbs::service
