#include "service/client.hpp"

#include <utility>

#include <sys/socket.h>

#include "obs/metrics.hpp"
#include "service/socket.hpp"
#include "support/error.hpp"

namespace lbs::service {

namespace {

PlanResponse failed_response(std::uint64_t id, PlanStatus status) {
  PlanResponse response;
  response.id = id;
  response.status = status;
  response.message = status == PlanStatus::Timeout
                         ? "request deadline expired before the reply arrived"
                         : "connection to lbsd lost before the reply arrived";
  return response;
}

// Resolves a request that got no reply. A control request resolves with
// a PlanResponse-typed Message, so a caller checking for its expected
// reply type sees the failure.
void resolve_failed(std::promise<PlanResponse>& promise, std::uint64_t id,
                    PlanStatus status) {
  promise.set_value(failed_response(id, status));
}

void resolve_failed(std::promise<Message>& promise, std::uint64_t id,
                    PlanStatus status) {
  Message dead;
  dead.type = MessageType::PlanResponse;
  dead.id = id;
  dead.plan_response = failed_response(id, status);
  promise.set_value(std::move(dead));
}

}  // namespace

Client::Client(const std::string& endpoint_spec)
    : Client(ClientOptions{.socket_path = {},
                           .endpoint = Endpoint::parse(endpoint_spec)}) {}

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::global_metrics()) {
  if (!options_.endpoint.valid()) {
    LBS_CHECK_MSG(!options_.socket_path.empty(),
                  "service client needs a socket path or an endpoint");
    options_.endpoint = Endpoint::unix_path(options_.socket_path);
  }
  fd_ = connect_endpoint(options_.endpoint);
  if (fd_ < 0) {
    throw lbs::Error("service client: no server listening at " +
                     options_.endpoint.to_string());
  }
  reader_ = std::thread([this] { reader_loop(); });
}

Client::~Client() { close(); }

template <typename T>
std::future<T> Client::send(PendingMap<T>& pending, std::uint64_t id,
                            const std::vector<std::uint8_t>& payload,
                            IoDeadline deadline) {
  std::promise<T> promise;
  std::future<T> future = promise.get_future();
  if (disconnected_.load(std::memory_order_acquire)) {
    resolve_failed(promise, id, PlanStatus::Disconnected);
    return future;
  }
  // Register the promise *before* sending: the reply can race the return
  // from send_frame.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.emplace(id, std::move(promise));
  }
  IoStatus sent = IoStatus::Closed;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ >= 0 && !disconnected_.load(std::memory_order_acquire)) {
      sent = send_frame(fd_, payload, deadline);
    }
  }
  if (sent == IoStatus::Ok) return future;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending.find(id);
    if (it != pending.end()) {
      const bool late = sent == IoStatus::TimedOut;
      if (late) metrics_->counter("service.client.timeouts").add();
      resolve_failed(it->second, id,
                     late ? PlanStatus::Timeout : PlanStatus::Disconnected);
      pending.erase(it);
    }
  }
  // The socket failed, or the stream may now end mid-frame: either way
  // the connection is over. Ended only after this request is resolved,
  // so the reader's fail_all_pending cannot answer it Disconnected.
  end_connection();
  return future;
}

template <typename T>
T Client::await(PendingMap<T>& pending, std::uint64_t id, std::future<T>& future,
                IoDeadline deadline) {
  if (deadline != no_deadline() &&
      future.wait_until(deadline) != std::future_status::ready) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending.find(id);
    // Not found: the reader already claimed the entry and the reply is
    // being delivered, so wait for it below.
    if (it != pending.end()) {
      metrics_->counter("service.client.timeouts").add();
      resolve_failed(it->second, id, PlanStatus::Timeout);
      pending.erase(it);
    }
  }
  return future.get();
}

std::vector<std::uint8_t> Client::encode_plan(std::uint64_t id,
                                              const model::Platform& platform,
                                              long long items,
                                              core::Algorithm algorithm) const {
  PlanRequest request;
  request.id = id;
  request.algorithm = algorithm;
  request.items = items;
  request.epoch = epoch_.load(std::memory_order_relaxed);
  request.platform = platform;
  return encode_plan_request(request);
}

std::future<PlanResponse> Client::plan_async(const model::Platform& platform,
                                             long long items,
                                             core::Algorithm algorithm) {
  const std::uint64_t id = next_id();
  return send(pending_plans_, id, encode_plan(id, platform, items, algorithm),
              no_deadline());
}

PlanResponse Client::plan(const model::Platform& platform, long long items,
                          core::Algorithm algorithm,
                          std::optional<std::uint32_t> timeout_ms) {
  const std::uint64_t id = next_id();
  const IoDeadline deadline =
      deadline_after_ms(timeout_ms.value_or(options_.request_timeout_ms));
  std::future<PlanResponse> future = send(
      pending_plans_, id, encode_plan(id, platform, items, algorithm), deadline);
  return await(pending_plans_, id, future, deadline);
}

bool Client::ping() { return control(MessageType::Ping).type == MessageType::Pong; }

std::string Client::server_stats() {
  Message reply = control(MessageType::StatsRequest);
  if (reply.type != MessageType::StatsResponse) return {};
  return reply.text;
}

bool Client::shutdown_server() {
  return control(MessageType::Shutdown).type == MessageType::ShutdownAck;
}

std::optional<MembershipView> Client::membership_exchange(
    const MembershipView& view) {
  const std::uint64_t id = next_id();
  Message reply = control(id, encode_membership_update(id, view));
  if (reply.type != MessageType::MembershipAck || !reply.view) return std::nullopt;
  return std::move(reply.view);
}

Message Client::control(MessageType type) {
  const std::uint64_t id = next_id();
  return control(id, encode_control(type, id));
}

Message Client::control(std::uint64_t id, const std::vector<std::uint8_t>& payload) {
  const IoDeadline deadline = deadline_after_ms(options_.control_timeout_ms);
  std::future<Message> future = send(pending_controls_, id, payload, deadline);
  return await(pending_controls_, id, future, deadline);
}

void Client::end_connection() {
  // shutdown() wakes the reader, which fails the pending requests, and
  // fails a send in progress. Not under write_mu_: a send with no
  // deadline may hold it until this very shutdown.
  std::lock_guard<std::mutex> lock(fd_mu_);
  disconnected_.store(true, std::memory_order_release);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Client::reader_loop() {
  std::vector<std::uint8_t> payload;
  while (true) {
    IoStatus status = IoStatus::Closed;
    try {
      status = recv_frame(fd_, payload, no_deadline(), options_.request_timeout_ms);
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
          plan_promise = std::move(it->second);
          pending_plans_.erase(it);
          have_plan = true;
        }
      } else {
        auto it = pending_controls_.find(message.id);
        if (it != pending_controls_.end()) {
          control_promise = std::move(it->second);
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
  end_connection();
  fail_all_pending();
}

void Client::fail_all_pending() {
  PendingMap<PlanResponse> plans;
  PendingMap<Message> controls;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    plans.swap(pending_plans_);
    controls.swap(pending_controls_);
  }
  for (auto& [id, promise] : plans) {
    resolve_failed(promise, id, PlanStatus::Disconnected);
  }
  for (auto& [id, promise] : controls) {
    resolve_failed(promise, id, PlanStatus::Disconnected);
  }
}

void Client::close() {
  std::call_once(close_once_, [this] {
    end_connection();
    if (reader_.joinable()) reader_.join();
    // Sends on the shut-down socket fail at once, so write_mu_ frees up;
    // only then can the fd number be released for reuse.
    std::scoped_lock lock(write_mu_, fd_mu_);
    close_fd(fd_);
    fd_ = -1;
  });
}

}  // namespace lbs::service
