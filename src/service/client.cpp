#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "service/socket.hpp"
#include "support/error.hpp"

namespace lbs::service {

namespace {

PlanResponse disconnected_response(std::uint64_t id) {
  PlanResponse response;
  response.id = id;
  response.status = PlanStatus::Disconnected;
  response.message = "connection to lbsd lost before the reply arrived";
  return response;
}

PlanResponse timeout_response(std::uint64_t id) {
  PlanResponse response;
  response.id = id;
  response.status = PlanStatus::Timeout;
  response.message = "request deadline expired before the reply arrived";
  return response;
}

Message dead_control(std::uint64_t id, PlanResponse body) {
  Message dead;
  dead.type = MessageType::PlanResponse;
  dead.id = id;
  dead.plan_response = std::move(body);
  return dead;
}

std::chrono::steady_clock::time_point plan_deadline(std::uint32_t timeout_ms) {
  if (timeout_ms == 0) return std::chrono::steady_clock::time_point::max();
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
}

std::uint64_t derive_jitter_seed(const void* self) {
  // Mix the client's address with the steady clock: two clients in one
  // process differ by address, two processes by clock. Reproducible runs
  // set ClientOptions::jitter_seed explicitly instead.
  std::uint64_t seed = reinterpret_cast<std::uintptr_t>(self);
  seed ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  seed ^= static_cast<std::uint64_t>(::getpid()) << 32;
  return seed != 0 ? seed : 0x9e3779b97f4a7c15ULL;
}

}  // namespace

std::uint32_t backoff_with_jitter(std::uint32_t hint_ms, int attempt,
                                  std::uint32_t base_ms, std::uint32_t cap_ms,
                                  support::Rng& rng) {
  std::uint64_t base = std::max<std::uint64_t>(std::max(hint_ms, base_ms), 1);
  std::uint64_t cap = std::max<std::uint64_t>(cap_ms, 1);
  // Saturating exponential: base << attempt, pinned at the cap so a long
  // outage cannot overflow into a zero (or an hour-long) sleep.
  for (int i = 0; i < attempt && base < cap; ++i) base <<= 1;
  base = std::min(base, cap);
  // ±50% jitter: uniform over [b/2, 3b/2], then re-capped. Without this,
  // every client rejected by the same full queue sleeps the same hint and
  // they all come back in lockstep — a retry storm with a metronome.
  std::uint64_t lo = std::max<std::uint64_t>(base / 2, 1);
  std::uint64_t hi = base + base / 2;
  std::uint64_t jittered = static_cast<std::uint64_t>(
      rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  return static_cast<std::uint32_t>(std::min(jittered, cap));
}

Client::Client(const std::string& endpoint_spec)
    : Client(ClientOptions{.endpoint = Endpoint::parse(endpoint_spec)}) {}

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::global_metrics()),
      rng_(options_.jitter_seed != 0 ? options_.jitter_seed
                                     : derive_jitter_seed(this)) {
  if (!options_.endpoint.valid()) {
    LBS_CHECK_MSG(!options_.socket_path.empty(),
                  "service client needs a socket path or an endpoint");
    options_.endpoint = Endpoint::unix_path(options_.socket_path);
  }
  LBS_CHECK_MSG(options_.breaker_threshold >= 0,
                "breaker_threshold must be >= 0 (0 disables)");
  fd_ = connect_endpoint(options_.endpoint);
  if (fd_ < 0) {
    throw lbs::Error("service client: no server listening at " +
                     options_.endpoint.to_string());
  }
  reader_ = std::thread([this] { reader_loop(); });
  sweeper_ = std::thread([this] { sweeper_loop(); });
}

Client::~Client() { close(); }

std::future<PlanResponse> Client::plan_async(const model::Platform& platform,
                                             long long items,
                                             core::Algorithm algorithm,
                                             std::optional<std::uint32_t> timeout_ms) {
  std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  TimePoint deadline =
      plan_deadline(timeout_ms.value_or(options_.request_timeout_ms));

  std::promise<PlanResponse> promise;
  std::future<PlanResponse> future = promise.get_future();
  if (disconnected_.load(std::memory_order_acquire)) {
    promise.set_value(disconnected_response(id));
    return future;
  }

  PlanRequest request;
  request.id = id;
  request.algorithm = algorithm;
  request.items = items;
  request.epoch = epoch_.load(std::memory_order_relaxed);
  request.platform = platform;
  std::vector<std::uint8_t> payload = encode_plan_request(request);

  // Register the promise *before* sending: the reply can race the return
  // from send_payload.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_plans_.emplace(id, PendingPlan{std::move(promise), deadline});
  }
  if (deadline != TimePoint::max()) sweeper_cv_.notify_all();

  if (!send_payload(payload, deadline)) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_plans_.find(id);
    if (it != pending_plans_.end()) {
      // Distinguish "the socket died" from "the deadline expired while
      // the send was still blocked" — the latter is a Timeout.
      bool late = deadline != TimePoint::max() &&
                  std::chrono::steady_clock::now() >= deadline;
      it->second.promise.set_value(late ? timeout_response(id)
                                        : disconnected_response(id));
      pending_plans_.erase(it);
    }
  }
  return future;
}

PlanResponse Client::plan(const model::Platform& platform, long long items,
                          core::Algorithm algorithm,
                          std::optional<std::uint32_t> timeout_ms) {
  PlanResponse response = plan_async(platform, items, algorithm, timeout_ms).get();
  record_outcome(response.status);
  return response;
}

PlanResponse Client::plan_with_retry(const model::Platform& platform,
                                     long long items, core::Algorithm algorithm,
                                     int max_retries) {
  PlanResponse response;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (!breaker_allows()) {
      metrics_->counter("service.client.breaker.fast_fails").add();
      if (options_.local_fallback) {
        return local_plan(platform, items, algorithm, "circuit breaker open");
      }
      response = PlanResponse{};
      response.status = PlanStatus::BreakerOpen;
      response.message = "circuit breaker open: failing fast";
      return response;
    }
    if (!connected()) {
      // Kill-restart drills: the daemon may be back under the same
      // socket path. A failed dial counts as this attempt's transport
      // failure and falls through to the backoff below.
      (void)try_reconnect();
    }

    response = plan(platform, items, algorithm);
    if (response.status == PlanStatus::Ok ||
        response.status == PlanStatus::Error ||
        response.status == PlanStatus::WrongEpoch) {
      // WrongEpoch is conclusive here: this replica will keep redirecting
      // until the caller re-rings from current_view and routes elsewhere.
      return response;
    }

    // Rejected (backpressure) or Disconnected/Timeout (transport): both
    // retry after a jittered, capped, exponentially growing sleep. The
    // server's retry_after_ms hint seeds the schedule when present.
    if (attempt == max_retries) break;
    std::uint32_t wait_ms;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      wait_ms = backoff_with_jitter(response.retry_after_ms, attempt,
                                    options_.backoff_base_ms,
                                    options_.backoff_cap_ms, rng_);
    }
    metrics_->counter("service.client.retry.attempts").add();
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }

  // Budget exhausted. Transport-style failures can still degrade to the
  // in-process planner; a persistent Rejected is reported as-is (the
  // server is alive, just saturated — local planning would hide that).
  if (options_.local_fallback && (response.status == PlanStatus::Disconnected ||
                                  response.status == PlanStatus::Timeout)) {
    return local_plan(platform, items, algorithm, "retries exhausted");
  }
  return response;
}

PlanResponse Client::local_plan(const model::Platform& platform, long long items,
                                core::Algorithm algorithm,
                                const std::string& reason) {
  metrics_->counter("service.client.fallbacks").add();
  return plan_locally(platform, items, algorithm, options_.fallback_dp_threads,
                      reason);
}

PlanResponse plan_locally(const model::Platform& platform, long long items,
                          core::Algorithm algorithm, int dp_threads,
                          const std::string& reason) {
  PlanResponse response;
  try {
    core::PlannerOptions planner_options;
    planner_options.algorithm = algorithm;
    planner_options.dp.threads = dp_threads;
    response = plan_response(core::plan_scatter(platform, items, planner_options));
    response.local_fallback = true;
    response.message = reason;
  } catch (const std::exception& error) {
    response.status = PlanStatus::Error;
    response.message = error.what();
  }
  return response;
}

void Client::record_outcome(PlanStatus status) {
  if (options_.breaker_threshold <= 0) return;
  bool transport_failure =
      status == PlanStatus::Disconnected || status == PlanStatus::Timeout;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (!transport_failure) {
    consecutive_failures_ = 0;
    breaker_is_open_ = false;
    return;
  }
  ++consecutive_failures_;
  if (consecutive_failures_ >= options_.breaker_threshold) {
    if (!breaker_is_open_ ||
        std::chrono::steady_clock::now() >= breaker_open_until_) {
      // Newly opened, or a half-open trial just failed: re-arm.
      metrics_->counter("service.client.breaker.opens").add();
    }
    breaker_is_open_ = true;
    breaker_open_until_ = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.breaker_cooldown_ms);
  }
}

bool Client::breaker_allows() {
  if (options_.breaker_threshold <= 0) return true;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (!breaker_is_open_) return true;
  // Cooldown expired: half-open. Let one attempt through; its outcome
  // (record_outcome) either closes the breaker or re-arms the cooldown.
  return std::chrono::steady_clock::now() >= breaker_open_until_;
}

bool Client::breaker_open() const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return breaker_is_open_ &&
         std::chrono::steady_clock::now() < breaker_open_until_;
}

bool Client::ping() {
  auto future = send_control(MessageType::Ping);
  Message reply = future.get();
  return reply.type == MessageType::Pong;
}

std::string Client::server_stats() {
  auto future = send_control(MessageType::StatsRequest);
  Message reply = future.get();
  if (reply.type != MessageType::StatsResponse) return {};
  return reply.text;
}

bool Client::shutdown_server() {
  auto future = send_control(MessageType::Shutdown);
  Message reply = future.get();
  return reply.type == MessageType::ShutdownAck;
}

std::optional<MembershipView> Client::membership_exchange(
    const MembershipView& view) {
  std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Message reply = send_control_frame(id, encode_membership_update(id, view)).get();
  if (reply.type != MessageType::MembershipAck || !reply.view) return std::nullopt;
  return std::move(reply.view);
}

std::future<Message> Client::send_control(MessageType type) {
  std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return send_control_frame(id, encode_control(type, id));
}

std::future<Message> Client::send_control_frame(
    std::uint64_t id, const std::vector<std::uint8_t>& payload) {
  TimePoint deadline = plan_deadline(options_.control_timeout_ms);

  std::promise<Message> promise;
  std::future<Message> future = promise.get_future();
  if (disconnected_.load(std::memory_order_acquire)) {
    promise.set_value(dead_control(id, disconnected_response(id)));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_controls_.emplace(id, PendingControl{std::move(promise), deadline});
  }
  if (deadline != TimePoint::max()) sweeper_cv_.notify_all();

  if (!send_payload(payload, deadline)) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_controls_.find(id);
    if (it != pending_controls_.end()) {
      it->second.promise.set_value(dead_control(id, disconnected_response(id)));
      pending_controls_.erase(it);
    }
  }
  return future;
}

bool Client::send_payload(const std::vector<std::uint8_t>& payload,
                          TimePoint deadline) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0 || disconnected_.load(std::memory_order_acquire)) return false;
  IoStatus status = send_frame_within(fd_, payload, deadline);
  if (status == IoStatus::Ok) return true;
  if (status != IoStatus::TimedOut) {
    // The socket itself failed; a timed-out send leaves the connection
    // intact (the peer may just be slow) — the sweeper owns the verdict.
    disconnected_.store(true, std::memory_order_release);
  }
  return false;
}

void Client::reader_loop() {
  std::vector<std::uint8_t> payload;
  while (!stop_.load(std::memory_order_acquire)) {
    IoStatus status = IoStatus::Closed;
    try {
      status = recv_frame_within(fd_, payload, stop_, no_deadline());
    } catch (const lbs::Error&) {
      status = IoStatus::Closed;  // mis-framed/corrupt stream: disconnect
    }
    if (status != IoStatus::Ok) break;

    Message message;
    try {
      message = decode_message(payload);
    } catch (const lbs::Error&) {
      break;  // protocol violation: drop the connection
    }

    std::promise<PlanResponse> plan_promise;
    std::promise<Message> control_promise;
    bool have_plan = false;
    bool have_control = false;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      if (message.type == MessageType::PlanResponse && message.plan_response) {
        auto it = pending_plans_.find(message.id);
        if (it != pending_plans_.end()) {
          plan_promise = std::move(it->second.promise);
          pending_plans_.erase(it);
          have_plan = true;
        }
      } else {
        auto it = pending_controls_.find(message.id);
        if (it != pending_controls_.end()) {
          control_promise = std::move(it->second.promise);
          pending_controls_.erase(it);
          have_control = true;
        }
      }
    }
    // Unmatched ids (a reply for a request that timed out or was given
    // up on) are dropped.
    if (have_plan) plan_promise.set_value(std::move(*message.plan_response));
    if (have_control) control_promise.set_value(std::move(message));
  }
  disconnected_.store(true, std::memory_order_release);
  fail_all_pending();
}

void Client::sweeper_loop() {
  std::unique_lock<std::mutex> lock(pending_mu_);
  while (!sweeper_stop_) {
    TimePoint next = TimePoint::max();
    for (const auto& [id, pending] : pending_plans_) {
      next = std::min(next, pending.deadline);
    }
    for (const auto& [id, pending] : pending_controls_) {
      next = std::min(next, pending.deadline);
    }
    if (next == TimePoint::max()) {
      sweeper_cv_.wait(lock);
    } else {
      sweeper_cv_.wait_until(lock, next);
    }
    if (sweeper_stop_) break;

    TimePoint now = std::chrono::steady_clock::now();
    std::vector<std::promise<PlanResponse>> expired_plans;
    std::vector<std::uint64_t> expired_plan_ids;
    std::vector<std::promise<Message>> expired_controls;
    std::vector<std::uint64_t> expired_control_ids;
    for (auto it = pending_plans_.begin(); it != pending_plans_.end();) {
      if (it->second.deadline <= now) {
        expired_plan_ids.push_back(it->first);
        expired_plans.push_back(std::move(it->second.promise));
        it = pending_plans_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = pending_controls_.begin(); it != pending_controls_.end();) {
      if (it->second.deadline <= now) {
        expired_control_ids.push_back(it->first);
        expired_controls.push_back(std::move(it->second.promise));
        it = pending_controls_.erase(it);
      } else {
        ++it;
      }
    }
    if (expired_plans.empty() && expired_controls.empty()) continue;

    // Resolve outside the lock: a waiter woken by set_value may
    // immediately issue a follow-up request that needs pending_mu_.
    lock.unlock();
    for (std::size_t i = 0; i < expired_plans.size(); ++i) {
      metrics_->counter("service.client.timeouts").add();
      expired_plans[i].set_value(timeout_response(expired_plan_ids[i]));
    }
    for (std::size_t i = 0; i < expired_controls.size(); ++i) {
      metrics_->counter("service.client.timeouts").add();
      expired_controls[i].set_value(dead_control(
          expired_control_ids[i], timeout_response(expired_control_ids[i])));
    }
    lock.lock();
  }
}

void Client::fail_all_pending() {
  std::map<std::uint64_t, PendingPlan> plans;
  std::map<std::uint64_t, PendingControl> controls;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    plans.swap(pending_plans_);
    controls.swap(pending_controls_);
  }
  for (auto& [id, pending] : plans) {
    pending.promise.set_value(disconnected_response(id));
  }
  for (auto& [id, pending] : controls) {
    pending.promise.set_value(dead_control(id, disconnected_response(id)));
  }
}

void Client::teardown_connection_locked() {
  stop_.store(true, std::memory_order_release);
  disconnected_.store(true, std::memory_order_release);
  {
    // shutdown() wakes the reader's poll immediately; close the fd only
    // after the reader is joined so no other thread can reuse the number.
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  if (reader_.joinable()) reader_.join();
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    close_fd(fd_);
    fd_ = -1;
  }
  fail_all_pending();
}

bool Client::try_reconnect() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (closed_) return false;
  if (!disconnected_.load(std::memory_order_acquire)) return true;

  teardown_connection_locked();

  int fd = connect_endpoint(options_.endpoint);
  if (fd < 0) return false;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    fd_ = fd;
  }
  stop_.store(false, std::memory_order_release);
  disconnected_.store(false, std::memory_order_release);
  reader_ = std::thread([this] { reader_loop(); });
  metrics_->counter("service.client.reconnects").add();
  return true;
}

void Client::close() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (closed_) return;
  closed_ = true;
  teardown_connection_locked();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    sweeper_stop_ = true;
  }
  sweeper_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

}  // namespace lbs::service
