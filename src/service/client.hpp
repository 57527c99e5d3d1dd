// Client library for the planning service (lbsd).
//
// One Client owns one connection and pipelines any number of in-flight
// requests over it: plan_async returns a std::future immediately, a
// background reader thread demultiplexes responses by request id, and
// plan() is simply plan_async().get(). The client is thread-safe — many
// threads may issue requests on one Client concurrently (sends serialize
// on a write mutex; the wire format's ids keep replies matched).
//
// Robustness contract (docs/service.md has the full semantics):
//
//   Deadlines.  Every request may carry a deadline
//     (ClientOptions::request_timeout_ms, or per-call override). A
//     dedicated sweeper thread resolves expired futures with
//     PlanStatus::Timeout; the late reply, if it ever arrives, is
//     dropped as an unmatched id. Sends also honor the deadline, so a
//     peer that stops reading cannot wedge the caller in write().
//
//   Backpressure.  PlanStatus::Rejected is not an error, it is the
//     server saying "queue full, come back later". plan_with_retry
//     implements the polite loop: exponential backoff seeded from the
//     server's retry_after_ms hint with ±50% jitter (so a thousand
//     rejected clients do not reconverge on the same millisecond) and a
//     hard cap per sleep.
//
//   Circuit breaker.  breaker_threshold consecutive transport failures
//     (Disconnected / Timeout) open the breaker: for breaker_cooldown_ms
//     every plan_with_retry fails fast with PlanStatus::BreakerOpen
//     instead of queueing behind a dead socket. After the cooldown one
//     trial request probes the server (half-open); success closes the
//     breaker, failure re-arms the cooldown.
//
//   Local fallback.  With local_fallback set, a breaker-open or
//     retries-exhausted plan_with_retry degrades to the in-process
//     planner (core::plan_scatter) instead of failing: same plan the
//     daemon would have computed (it runs the identical engine), flagged
//     with PlanResponse::local_fallback so callers can tell.
//
//   Reconnect.  try_reconnect() re-dials the socket after a disconnect
//     (kill-restart drills); plan_with_retry calls it before each
//     attempt when the connection is down. close() is terminal.
//
// When the connection dies, every outstanding future resolves with
// PlanStatus::Disconnected — futures never hang.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
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
#include "support/rng.hpp"

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

  // Default deadline for one plan request, send to reply. 0: wait
  // forever (legacy behavior). Expired requests resolve
  // PlanStatus::Timeout and count as transport failures for the breaker.
  std::uint32_t request_timeout_ms = 0;
  // Deadline for control round-trips (ping / stats / shutdown). 0: none.
  std::uint32_t control_timeout_ms = 0;

  // plan_with_retry backoff: sleep_ms grows exponentially per attempt
  // from max(server hint, backoff_base_ms), jittered to ±50%, never
  // above backoff_cap_ms.
  std::uint32_t backoff_base_ms = 1;
  std::uint32_t backoff_cap_ms = 2000;

  // Circuit breaker: this many *consecutive* transport failures open it
  // (0 disables the breaker entirely).
  int breaker_threshold = 5;
  std::uint32_t breaker_cooldown_ms = 1000;

  // Degrade to the in-process planner when the breaker is open or
  // plan_with_retry exhausts its budget on transport failures.
  bool local_fallback = false;
  int fallback_dp_threads = 1;

  // Seed for the backoff jitter stream. 0: derive a per-client seed (two
  // clients must not jitter in lockstep — that is the bug jitter fixes).
  std::uint64_t jitter_seed = 0;

  // Metrics sink for service.client.* counters; null falls back to
  // obs::global_metrics().
  obs::Metrics* metrics = nullptr;
};

// The plan_with_retry sleep schedule, exposed for tests: exponential in
// `attempt` (0-based) from max(hint_ms, base_ms), capped at cap_ms, then
// jittered uniformly over [½·b, 3⁄2·b]. Always returns >= 1.
[[nodiscard]] std::uint32_t backoff_with_jitter(std::uint32_t hint_ms, int attempt,
                                                std::uint32_t base_ms,
                                                std::uint32_t cap_ms,
                                                support::Rng& rng);

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
  // answers (Ok / Rejected / Error), the deadline expires (Timeout), or
  // the connection dies (Disconnected). Safe to call from any thread,
  // any number in flight. timeout_ms overrides options().request_timeout_ms
  // for this request (0: no deadline).
  [[nodiscard]] std::future<PlanResponse> plan_async(
      const model::Platform& platform, long long items,
      core::Algorithm algorithm = core::Algorithm::Auto,
      std::optional<std::uint32_t> timeout_ms = std::nullopt);

  // Synchronous convenience: plan_async + get. Feeds the breaker's
  // failure accounting.
  [[nodiscard]] PlanResponse plan(const model::Platform& platform, long long items,
                                  core::Algorithm algorithm = core::Algorithm::Auto,
                                  std::optional<std::uint32_t> timeout_ms = std::nullopt);

  // The polite client loop: retries Rejected (honoring retry_after_ms
  // with jittered exponential backoff) and transport failures (after
  // try_reconnect) up to `max_retries` extra attempts; fails fast with
  // BreakerOpen while the breaker is open; degrades to the in-process
  // planner when configured. Ok, Error, and WrongEpoch return
  // immediately — WrongEpoch is conclusive for THIS replica (the caller
  // must re-ring from response.current_view and route elsewhere; a
  // retry here would just be redirected again).
  [[nodiscard]] PlanResponse plan_with_retry(
      const model::Platform& platform, long long items,
      core::Algorithm algorithm = core::Algorithm::Auto, int max_retries = 8);

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
  // not an Ack; like all control traffic, never feeds the breaker.
  [[nodiscard]] std::optional<MembershipView> membership_exchange(
      const MembershipView& view);

  [[nodiscard]] bool connected() const {
    return !disconnected_.load(std::memory_order_acquire);
  }

  // Re-dials the socket after a disconnect. True when the connection is
  // usable afterwards (including "was never down"). False after close()
  // or when the server is still unreachable. Outstanding futures from
  // the dead connection resolve Disconnected first.
  bool try_reconnect();

  // True while the breaker is failing fast (cooldown not yet expired).
  [[nodiscard]] bool breaker_open() const;

  [[nodiscard]] const ClientOptions& options() const { return options_; }

  // Closes the connection; outstanding futures resolve Disconnected.
  // Terminal: try_reconnect refuses afterwards.
  void close();

 private:
  using TimePoint = std::chrono::steady_clock::time_point;
  struct PendingPlan {
    std::promise<PlanResponse> promise;
    TimePoint deadline = TimePoint::max();
  };
  struct PendingControl {
    std::promise<Message> promise;
    TimePoint deadline = TimePoint::max();
  };

  // A control round-trip (Ping/StatsRequest/Shutdown): resolves with the
  // matching response Message, or type == PlanResponse + Disconnected
  // body when the connection dies first.
  [[nodiscard]] std::future<Message> send_control(MessageType type);
  // Same demux path for a control frame with a body (MembershipUpdate).
  [[nodiscard]] std::future<Message> send_control_frame(
      std::uint64_t id, const std::vector<std::uint8_t>& payload);
  [[nodiscard]] bool send_payload(const std::vector<std::uint8_t>& payload,
                                  TimePoint deadline);
  void reader_loop();
  void sweeper_loop();
  void fail_all_pending();
  void teardown_connection_locked();  // requires lifecycle_mu_

  // Breaker accounting: Disconnected/Timeout are transport failures,
  // anything the server actually said (Ok/Rejected/Error) is a success.
  void record_outcome(PlanStatus status);
  [[nodiscard]] bool breaker_allows();

  [[nodiscard]] PlanResponse local_plan(const model::Platform& platform,
                                        long long items, core::Algorithm algorithm,
                                        const std::string& reason);

  ClientOptions options_;
  obs::Metrics* metrics_ = nullptr;

  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> disconnected_{false};
  std::thread reader_;
  std::mutex write_mu_;

  std::mutex lifecycle_mu_;  // serializes close() and try_reconnect()
  bool closed_ = false;      // guarded by lifecycle_mu_

  std::mutex pending_mu_;
  std::condition_variable sweeper_cv_;  // with pending_mu_
  bool sweeper_stop_ = false;           // guarded by pending_mu_
  std::map<std::uint64_t, PendingPlan> pending_plans_;
  std::map<std::uint64_t, PendingControl> pending_controls_;
  std::thread sweeper_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> epoch_{0};

  mutable std::mutex breaker_mu_;
  int consecutive_failures_ = 0;  // guarded by breaker_mu_
  bool breaker_is_open_ = false;  // guarded by breaker_mu_
  TimePoint breaker_open_until_{};

  std::mutex rng_mu_;
  support::Rng rng_;  // jitter stream, guarded by rng_mu_
};

// The local fallback Client and FleetClient share: plan_scatter in
// process with `dp_threads` per solve, answered as an Ok response flagged
// local_fallback with `reason` as its message. A planner failure — an
// lbs::Error or any other std::exception, such as std::bad_alloc on an
// oversized request — becomes an Error response instead.
[[nodiscard]] PlanResponse plan_locally(const model::Platform& platform,
                                        long long items, core::Algorithm algorithm,
                                        int dp_threads, const std::string& reason);

}  // namespace lbs::service
