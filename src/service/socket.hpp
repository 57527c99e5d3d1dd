// Thin POSIX wrappers for the service's stream transports.
//
// lbsd listens on an Endpoint: either a filesystem socket (SOCK_STREAM
// over AF_UNIX — local, no network dependency) or a TCP host:port (the
// fleet transport — N replicas on N ports, one consistent-hash ring in
// front). Both carry the identical length-prefixed framing from
// service/protocol.hpp on a reliable byte stream; everything above the
// fd never knows which family it is speaking. TCP connections set
// TCP_NODELAY: frames are small and latency-bound, and Nagle would
// serialize the pipelined request/response pattern.
//
// One frame path, three rules:
//   - Every recv/send is MSG_DONTWAIT, and poll(2) runs only after one
//     of them found the socket empty (or full): an idle wait is bounded
//     by the call's deadline, or unbounded. A busy socket costs no poll;
//     a deadline still holds against a quiet or stalled peer (poll
//     carries the timeout; no SO_RCVTIMEO, which a mid-frame short read
//     would quietly reset).
//   - shutdown(2) is the only stop signal. A thread blocked in
//     recv_frame or accept_connection wakes when any thread shuts the
//     socket down, and sees Closed (or -1); nothing samples a flag.
//   - A frame is one send(2) when the socket has room. A send that
//     misses its deadline leaves the stream mid-frame, so its caller
//     shuts the socket down, and only the thread that reads an fd ever
//     closes it: no thread can read or write a closed or reused fd.
//
// Frame integrity: every frame is `u32 length | u32 crc32 | payload`.
// The CRC (support::crc32 over the payload) turns in-flight byte
// corruption — a chaos-injected fault or a genuinely hostile peer — into
// a detected protocol violation that drops the connection, never into a
// silently wrong plan.
//
// Fault injection: when the chaos harness has installed a
// service::FaultInjector (chaos.hpp), the read/write helpers consult it
// on every recv/send attempt; production pays one relaxed atomic load
// per attempt when none is set.
//
// Error policy follows the repo convention: conditions that are *data*
// (peer hung up, socket shut down, deadline passed) are return values;
// violated invariants, corrupt frames, and unexpected syscall failures
// throw lbs::Error. Operator mistakes a CLI should report cleanly — a
// socket path too long for sockaddr_un, an unresolvable host, a
// malformed endpoint spec — throw the narrower service::Error so callers
// can tell "you misconfigured me" from "an invariant broke".
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace lbs::service {

// Typed service-layer error: endpoint/transport configuration the
// operator got wrong (bad --socket path, bad host:port). Derives from
// lbs::Error so existing catch sites keep working; daemons catch it and
// exit with a clean message instead of a crash report.
class Error : public lbs::Error {
 public:
  using lbs::Error::Error;
};

// Where a Server listens or a Client dials: a Unix-domain filesystem
// path or a TCP host:port. One Endpoint type end to end is what lets the
// fleet mix transports freely (local replicas on unix sockets, remote
// ones over TCP) behind the same wire protocol.
struct Endpoint {
  enum class Kind : std::uint8_t { None, Unix, Tcp };

  Kind kind = Kind::None;
  std::string path;  // Kind::Unix: filesystem socket path
  std::string host;  // Kind::Tcp: numeric address or resolvable name
  std::uint16_t port = 0;

  [[nodiscard]] static Endpoint unix_path(std::string socket_path);
  [[nodiscard]] static Endpoint tcp(std::string host, std::uint16_t port);

  // Accepts "unix:/path", "tcp:host:port", bare "host:port" (the text
  // after the last ':' must be a valid port), and bare filesystem paths.
  // Throws service::Error on a spec that parses as neither.
  [[nodiscard]] static Endpoint parse(const std::string& spec);

  [[nodiscard]] bool valid() const { return kind != Kind::None; }
  // Round-trips through parse(); also the fleet's ring node identity.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

// Splits a comma-separated endpoint list ("a.sock,host:4077,unix:b") —
// the fleet addressing syntax lbsctl and the load generator accept.
[[nodiscard]] std::vector<Endpoint> parse_endpoint_list(const std::string& spec);

// Outcome of one framed I/O call.
enum class IoStatus : std::uint8_t {
  Ok,        // the full frame moved
  Closed,    // EOF, peer reset or shutdown(2), mid-frame included
  TimedOut,  // the deadline passed before the frame completed
};

// Per-call deadline: a steady-clock time point; no_deadline() waits
// until the frame moves or the socket is shut down.
using IoDeadline = std::chrono::steady_clock::time_point;
[[nodiscard]] constexpr IoDeadline no_deadline() { return IoDeadline::max(); }
// `ms` from now; 0 is no_deadline(), as in every *_timeout_ms option.
[[nodiscard]] IoDeadline deadline_after_ms(std::uint32_t ms);

// Binds and listens, or dials. A Unix endpoint's stale socket file is
// unlinked first. listen_endpoint updates a Tcp endpoint's port in place
// when it was 0 (kernel-assigned), so the caller learns the address
// peers must dial. connect_endpoint returns -1 when no server is
// reachable there (refused, unreachable, missing socket file); both
// throw service::Error on misconfiguration (invalid endpoint,
// unresolvable host, oversize unix path) and lbs::Error on unexpected
// failures.
[[nodiscard]] int listen_endpoint(Endpoint& endpoint, int backlog = 64);
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint);

// Blocks in accept(2). Returns the connection fd, or -1 once the
// listener is shut down (or accept fails for good).
[[nodiscard]] int accept_connection(int listen_fd);

// Writes one frame (u32 length | u32 crc32 | payload) by `deadline`: one
// send(2) when the socket has room. Serialized by the caller (one writer
// at a time per fd). A TimedOut send may leave the stream mid-frame, so
// the caller must shut the socket down. Throws on oversized payloads or
// unexpected syscall failures.
[[nodiscard]] IoStatus send_frame(int fd, const std::vector<std::uint8_t>& payload,
                                  IoDeadline deadline);

// Reads one frame into `payload`. Its first byte must arrive by
// `deadline`; once it has, the whole frame must arrive within
// `frame_timeout_ms` too (0: `deadline` alone bounds it), so a length
// word that promises more bytes than ever follow costs one timeout, not
// a wedged reader. Throws lbs::Error on a mis-framed stream (length
// above kMaxFrameBytes) or a CRC mismatch — the caller should drop the
// connection.
[[nodiscard]] IoStatus recv_frame(int fd, std::vector<std::uint8_t>& payload,
                                  IoDeadline deadline,
                                  std::uint32_t frame_timeout_ms);

void close_fd(int fd);

}  // namespace lbs::service
