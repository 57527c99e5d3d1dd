// Client library for the planning service (lbsd): one connection.
//
// One Client owns one connection and pipelines any number of in-flight
// requests over it: plan_async returns a std::future immediately, a
// background reader thread demultiplexes responses by request id, and
// plan() sends and waits for the reply. The client is thread-safe — many
// threads may issue requests on one Client concurrently (sends serialize
// on a write mutex; the wire format's ids keep replies matched).
//
// Contract (docs/service.md has the full semantics):
//
//   Deadlines.  plan() and the control calls (ping, server_stats,
//     shutdown_server, membership_exchange) carry a deadline
//     (ClientOptions::request_timeout_ms / control_timeout_ms, or a
//     per-call override for plan). The waiting caller enforces it: on
//     expiry it withdraws its pending entry and answers
//     PlanStatus::Timeout; the late reply, if it ever arrives, is
//     dropped as an unmatched id. Sends also honor the deadline, so a
//     peer that stops reading cannot wedge the caller in send(); a send
//     that misses it answers Timeout and ends the connection, since the
//     stream may now stop mid-frame. The reader bounds each reply frame
//     by request_timeout_ms once its first byte is in.
//
//   Disconnects.  When the connection dies, every outstanding future
//     resolves with PlanStatus::Disconnected — futures never hang, and
//     connected() turns false. A Client never re-dials; close() is
//     terminal. Every stop is a shutdown(2) that wakes the reader
//     thread and fails a send in progress; close() closes the fd once it
//     has joined the reader.
//
// Policy — retries, backoff, circuit breaking, re-dialing and the local
// fallback — lives in one place, service::FleetClient (fleet.hpp). A
// one-replica FleetClient is the resilient client for a single daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace lbs::obs {
class Metrics;
}

namespace lbs::service {

struct ClientOptions {
  // Filesystem path of the lbsd Unix socket. Legacy/simple form —
  // ignored when `endpoint` is set. One of the two is required.
  std::string socket_path;

  // Where the daemon listens: unix path or TCP host:port. Takes
  // precedence over socket_path.
  Endpoint endpoint;

  // Default deadline for one plan() call, send to reply. 0: wait
  // forever. Expired requests answer PlanStatus::Timeout.
  std::uint32_t request_timeout_ms = 0;
  // Deadline for control round-trips (ping / stats / shutdown /
  // membership). 0: none.
  std::uint32_t control_timeout_ms = 0;

  // Metrics sink for the service.client.timeouts counter; null falls
  // back to obs::global_metrics().
  obs::Metrics* metrics = nullptr;
};

class Client {
 public:
  // Connects to a listening lbsd endpoint. The string form accepts any
  // Endpoint::parse spec (a bare path, "host:port", "unix:…", "tcp:…").
  // Throws lbs::Error when no server is reachable there.
  explicit Client(const std::string& endpoint_spec);
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Fire-and-collect: the returned future resolves when the server
  // answers (Ok / Rejected / Error / WrongEpoch) or the connection dies
  // (Disconnected). No deadline: use plan() for one. Safe to call from
  // any thread, any number in flight.
  [[nodiscard]] std::future<PlanResponse> plan_async(
      const model::Platform& platform, long long items,
      core::Algorithm algorithm = core::Algorithm::Auto);

  // Sends one request and waits for its reply, at most timeout_ms
  // (default options().request_timeout_ms; 0: no deadline).
  [[nodiscard]] PlanResponse plan(const model::Platform& platform, long long items,
                                  core::Algorithm algorithm = core::Algorithm::Auto,
                                  std::optional<std::uint32_t> timeout_ms = std::nullopt);

  // Round-trips a Ping; false when the connection is gone (or the
  // control deadline expired).
  [[nodiscard]] bool ping();

  // Fetches the server's stats JSON; empty string when disconnected.
  [[nodiscard]] std::string server_stats();

  // Asks the server to shut down; true when the ack arrived.
  bool shutdown_server();

  // The membership epoch stamped on every outgoing plan request (0 =
  // unversioned). FleetClient keeps this in step with its view so the
  // server can detect a stale router.
  void set_epoch(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  // One MembershipUpdate round-trip: the server adopts `view` iff newer
  // and the Ack returns wherever it converged. An epoch-0 view is a pure
  // query. Returns nullopt when the connection is down or the reply was
  // not an Ack.
  [[nodiscard]] std::optional<MembershipView> membership_exchange(
      const MembershipView& view);

  [[nodiscard]] bool connected() const {
    return !disconnected_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const ClientOptions& options() const { return options_; }

  // Closes the connection; outstanding futures resolve Disconnected.
  // Terminal and idempotent.
  void close();

 private:
  template <typename T>
  using PendingMap = std::map<std::uint64_t, std::promise<T>>;

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<std::uint8_t> encode_plan(
      std::uint64_t id, const model::Platform& platform, long long items,
      core::Algorithm algorithm) const;

  // Registers a promise under `id`, then sends `payload` by `deadline`.
  // A send that fails resolves the future at once (Timeout if the
  // deadline passed, else Disconnected) and ends the connection.
  template <typename T>
  [[nodiscard]] std::future<T> send(PendingMap<T>& pending, std::uint64_t id,
                                    const std::vector<std::uint8_t>& payload,
                                    IoDeadline deadline);
  // Waits for `future` until `deadline`; on expiry withdraws the pending
  // entry and answers Timeout, unless the reader already claimed it.
  template <typename T>
  [[nodiscard]] T await(PendingMap<T>& pending, std::uint64_t id,
                        std::future<T>& future, IoDeadline deadline);

  // A control round-trip under the control deadline: the matching
  // response Message, or type == PlanResponse with a Disconnected /
  // Timeout body when none arrived.
  [[nodiscard]] Message control(std::uint64_t id,
                                const std::vector<std::uint8_t>& payload);
  [[nodiscard]] Message control(MessageType type);
  // Marks the client disconnected and shuts the socket down.
  void end_connection();
  void reader_loop();
  void fail_all_pending();

  ClientOptions options_;
  obs::Metrics* metrics_ = nullptr;

  // Closed (and set -1) only by close(), after the reader has exited,
  // under write_mu_ and fd_mu_.
  int fd_ = -1;
  std::atomic<bool> disconnected_{false};
  std::mutex write_mu_;  // one frame writer at a time
  std::mutex fd_mu_;     // shutdown(2) against close(): never a reused fd
  std::once_flag close_once_;

  std::mutex pending_mu_;
  PendingMap<PlanResponse> pending_plans_;  // guarded by pending_mu_
  PendingMap<Message> pending_controls_;    // guarded by pending_mu_
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> epoch_{0};

  std::thread reader_;  // after everything reader_loop uses
};

}  // namespace lbs::service
