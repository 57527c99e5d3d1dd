#include "service/fleet.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace lbs::service {

namespace {

// How many WrongEpoch redirects one plan() call may follow. Each one
// adopts a strictly newer view, so this bounds pathological churn, not
// the normal case (one reshard = one redirect).
constexpr int kMaxRedirects = 3;
// The backoff schedule's floor when the server sends no hint.
constexpr std::uint32_t kBackoffBaseMs = 1;
// Threads per in-process fallback solve.
constexpr int kFallbackDpThreads = 1;

bool is_transport_failure(PlanStatus status) {
  return status == PlanStatus::Disconnected || status == PlanStatus::Timeout ||
         status == PlanStatus::BreakerOpen;
}

std::uint64_t derive_jitter_seed(const void* self) {
  // Mix the client's address with the steady clock: two clients in one
  // process differ by address, two processes by clock. Reproducible runs
  // set FleetOptions::jitter_seed explicitly instead.
  std::uint64_t seed = reinterpret_cast<std::uintptr_t>(self);
  seed ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  seed ^= static_cast<std::uint64_t>(::getpid()) << 32;
  return seed != 0 ? seed : 0x9e3779b97f4a7c15ULL;
}

// The local fallback: plan_scatter in process, answered as an Ok response
// flagged local_fallback with `reason` as its message. A planner failure
// — an lbs::Error or any other std::exception, such as std::bad_alloc on
// an oversized request — becomes an Error response instead.
PlanResponse plan_locally(const model::Platform& platform, long long items,
                          core::Algorithm algorithm, const std::string& reason) {
  PlanResponse response;
  try {
    core::PlannerOptions planner_options;
    planner_options.algorithm = algorithm;
    planner_options.dp.threads = kFallbackDpThreads;
    response = plan_response(core::plan_scatter(platform, items, planner_options));
    response.local_fallback = true;
    response.message = reason;
  } catch (const std::exception& error) {
    response.status = PlanStatus::Error;
    response.message = error.what();
  }
  return response;
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

FleetClient::FleetClient(FleetOptions options)
    : options_(std::move(options)),
      rng_(options_.jitter_seed != 0 ? options_.jitter_seed
                                     : derive_jitter_seed(this)) {
  LBS_CHECK_MSG(options_.retries_per_replica >= 0,
                "retries_per_replica must be >= 0");
  LBS_CHECK_MSG(options_.breaker_threshold >= 0,
                "breaker_threshold must be >= 0 (0 disables)");
  metrics_ = options_.metrics != nullptr ? options_.metrics : &obs::global_metrics();

  MembershipView initial = options_.view;
  if (initial.members.empty()) {
    for (const Endpoint& endpoint : options_.replicas) {
      LBS_CHECK_MSG(endpoint.valid(), "fleet replica endpoint is empty");
      initial.members.push_back(Member{endpoint, ReplicaState::Serving});
    }
  }
  LBS_CHECK_MSG(!initial.members.empty(), "fleet needs at least one replica");
  validate_view(initial);  // rejects duplicates / invalid endpoints
  std::lock_guard<std::mutex> lock(view_mu_);
  view_ = std::move(initial);
  install_view_locked();
  LBS_CHECK_MSG(ring_.node_count() > 0, "fleet membership has no serving replica");
}

FleetClient::~FleetClient() { close(); }

void FleetClient::install_view_locked() {
  for (const Member& member : view_.members) {
    (void)slot_for_locked(member.endpoint.to_string());
  }
  // The same ring Server::entries_owned_by hands partitions off by, so a
  // reshard warms exactly the replicas this client will route to.
  ring_ = ring_of(view_);
}

std::size_t FleetClient::slot_for_locked(const std::string& spec) {
  auto it = slot_index_.find(spec);
  if (it != slot_index_.end()) return it->second;
  auto slot = std::make_unique<Slot>();
  slot->endpoint = Endpoint::parse(spec);
  std::size_t idx = slots_.size();
  slots_.push_back(std::move(slot));
  served_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  slot_index_.emplace(spec, idx);
  return idx;
}

MembershipView FleetClient::membership_view() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

std::uint64_t FleetClient::epoch() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_.epoch;
}

bool FleetClient::apply_view(const MembershipView& update) {
  validate_view(update);
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    if (!adopt(view_, update)) return false;
    install_view_locked();
  }
  metrics_->counter("service.fleet.view_updates").add();
  return true;
}

std::shared_ptr<Client> FleetClient::connect(Slot& slot) {
  std::shared_ptr<Client> stale;  // released after the lock
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.client != nullptr && slot.client->connected()) return slot.client;
  if (closed_.load(std::memory_order_acquire)) return nullptr;  // never re-dial

  ClientOptions client_options;
  client_options.endpoint = slot.endpoint;
  client_options.request_timeout_ms = options_.request_timeout_ms;
  client_options.control_timeout_ms = options_.control_timeout_ms;
  client_options.metrics = metrics_;
  try {
    stale = std::exchange(slot.client, std::make_shared<Client>(client_options));
  } catch (const lbs::Error&) {
    metrics_->counter("service.fleet.dial_failures").add();
    return nullptr;
  }
  if (stale != nullptr) metrics_->counter("service.fleet.reconnects").add();
  return slot.client;
}

bool FleetClient::breaker_allows(Slot& slot) {
  if (options_.breaker_threshold <= 0) return true;
  std::lock_guard<std::mutex> lock(slot.mu);
  // Past the cooldown the breaker is half-open: the attempt goes through
  // and its outcome (record_outcome) closes the breaker or re-arms it.
  return !slot.breaker_tripped ||
         std::chrono::steady_clock::now() >= slot.tripped_until;
}

void FleetClient::record_outcome(Slot& slot, PlanStatus status) {
  if (options_.breaker_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(slot.mu);
  if (status != PlanStatus::Disconnected && status != PlanStatus::Timeout) {
    // The replica spoke (Ok / Rejected / Error / WrongEpoch).
    slot.consecutive_failures = 0;
    slot.breaker_tripped = false;
    return;
  }
  if (++slot.consecutive_failures < options_.breaker_threshold) return;
  const TimePoint now = std::chrono::steady_clock::now();
  if (!slot.breaker_tripped || now >= slot.tripped_until) {
    // Newly opened, or a half-open trial just failed: re-arm.
    metrics_->counter("service.fleet.breaker.opens").add();
  }
  slot.breaker_tripped = true;
  slot.tripped_until = now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
}

PlanResponse FleetClient::plan_on(Slot& slot, const model::Platform& platform,
                                  long long items, core::Algorithm algorithm,
                                  std::uint64_t epoch) {
  PlanResponse response;
  for (int attempt = 0;; ++attempt) {
    if (!breaker_allows(slot)) {
      metrics_->counter("service.fleet.breaker.fast_fails").add();
      response = PlanResponse{};
      response.status = PlanStatus::BreakerOpen;
      response.message = "circuit breaker open: failing fast";
      return response;
    }
    if (std::shared_ptr<Client> client = connect(slot)) {
      client->set_epoch(epoch);
      response = client->plan(platform, items, algorithm);
    } else {
      response = PlanResponse{};
      response.status = PlanStatus::Disconnected;
      response.message = "fleet: cannot reach " + slot.endpoint.to_string();
    }
    record_outcome(slot, response.status);
    // WrongEpoch is conclusive here: this replica will keep redirecting
    // until the caller re-rings from current_view and routes elsewhere.
    if (response.status == PlanStatus::Ok || response.status == PlanStatus::Error ||
        response.status == PlanStatus::WrongEpoch ||
        attempt == options_.retries_per_replica) {
      return response;
    }
    // Rejected (backpressure) or Disconnected/Timeout (transport): both
    // retry after a jittered, capped, exponentially growing sleep. The
    // server's retry_after_ms hint seeds the schedule when present.
    std::uint32_t wait_ms;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      wait_ms = backoff_with_jitter(response.retry_after_ms, attempt, kBackoffBaseMs,
                                    options_.backoff_cap_ms, rng_);
    }
    metrics_->counter("service.fleet.retry.attempts").add();
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
}

PlanResponse FleetClient::plan(const model::Platform& platform, long long items,
                               core::Algorithm algorithm) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("service.fleet.requests").add();

  core::PlanKey key = core::make_plan_key(platform, items, algorithm);
  std::uint64_t hash = static_cast<std::uint64_t>(core::PlanKeyHash{}(key));

  PlanResponse last;
  last.status = PlanStatus::Disconnected;
  last.message = "fleet: no replica reachable";
  for (int redirect = 0; redirect <= kMaxRedirects; ++redirect) {
    // Snapshot the routing decision under the lock; the ring's node
    // strings must be copied because a concurrent apply_view may rebuild
    // the ring while we walk the candidates.
    std::uint64_t epoch = 0;
    std::vector<std::string> candidates;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      epoch = view_.epoch;
      candidates.reserve(ring_.node_count());
      for (const std::string* node : ring_.nodes_for(hash, ring_.node_count())) {
        candidates.push_back(*node);
      }
    }

    bool redirected = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      // Slot objects are heap-stable, but the slots_ vector itself may
      // reallocate under a concurrent apply_view — resolve the pointer
      // under the lock.
      Slot* slot;
      std::atomic<std::uint64_t>* served;
      {
        std::lock_guard<std::mutex> lock(view_mu_);
        std::size_t idx = slot_for_locked(candidates[i]);
        slot = slots_[idx].get();
        served = served_[idx].get();
      }
      PlanResponse response = plan_on(*slot, platform, items, algorithm, epoch);
      if (response.status == PlanStatus::WrongEpoch &&
          response.current_view.epoch != 0 && response.current_view.epoch < epoch) {
        // The REPLICA is behind: the admin's pushes are sequential, so
        // a client can learn epoch N+1 from one replica while another
        // still holds N — and that laggard must not solve keys it no
        // longer owns. Gossip our newer view (the replica's adopt runs
        // its handoff pull before acking), then retry this candidate
        // once with a warm cache waiting.
        bool pushed = false;
        if (std::shared_ptr<Client> client = connect(*slot)) {
          try {
            pushed = client->membership_exchange(membership_view()).has_value();
          } catch (const lbs::Error&) {
          }
        }
        if (pushed) {
          metrics_->counter("service.fleet.view_pushes").add();
          response = plan_on(*slot, platform, items, algorithm, epoch);
        }
      }
      if (response.status == PlanStatus::WrongEpoch) {
        // Never keep walking the candidate list after a WrongEpoch: the
        // failover peers would be asked under an epoch we already know
        // is suspect, and a peer whose epoch happens to match ours would
        // dutifully solve a key it does not own (an observable re-solve).
        // Either the redirect carries a newer view (adopt it), or a
        // concurrent thread already advanced view_ past our snapshot —
        // both mean the same thing: re-snapshot and re-route from the
        // top, bounded by kMaxRedirects.
        (void)apply_view(response.current_view);
        redirected_.fetch_add(1, std::memory_order_relaxed);
        metrics_->counter("service.fleet.redirected").add();
        redirected = true;
        break;
      }
      if (!is_transport_failure(response.status)) {
        // Conclusive: the replica spoke (Ok / Error / Rejected). Rejected
        // is deliberately NOT rerouted — the home replica is alive, merely
        // saturated, and spilling its keys would melt the partition — and
        // it is NOT counted as a reroute either: it lands in its own
        // bucket regardless of which candidate said it.
        served->fetch_add(1, std::memory_order_relaxed);
        if (response.status == PlanStatus::Rejected) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          metrics_->counter("service.fleet.rejected").add();
        } else if (i > 0) {
          rerouted_.fetch_add(1, std::memory_order_relaxed);
          metrics_->counter("service.fleet.rerouted").add();
        }
        return response;
      }
      metrics_->counter("service.fleet.transport_failures").add();
      last = std::move(response);
    }
    if (!redirected) break;  // candidates exhausted under a stable view
  }

  if (options_.local_fallback) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("service.fleet.fallbacks").add();
    return plan_locally(platform, items, algorithm, "fleet: all replicas failed");
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("service.fleet.exhausted").add();
  return last;
}

std::size_t FleetClient::route_of(const model::Platform& platform, long long items,
                                  core::Algorithm algorithm) const {
  core::PlanKey key = core::make_plan_key(platform, items, algorithm);
  std::uint64_t hash = static_cast<std::uint64_t>(core::PlanKeyHash{}(key));
  std::lock_guard<std::mutex> lock(view_mu_);
  LBS_CHECK_MSG(ring_.node_count() > 0, "fleet membership has no serving replica");
  return slot_index_.at(ring_.node_for(hash));
}

FleetClient::Slot* FleetClient::slot_at(std::size_t replica) const {
  std::lock_guard<std::mutex> lock(view_mu_);
  LBS_CHECK_MSG(replica < slots_.size(), "fleet replica index out of range");
  return slots_[replica].get();
}

bool FleetClient::ping(std::size_t replica) {
  std::shared_ptr<Client> client = connect(*slot_at(replica));
  return client != nullptr && client->ping();
}

std::string FleetClient::stats(std::size_t replica) {
  std::shared_ptr<Client> client = connect(*slot_at(replica));
  return client != nullptr ? client->server_stats() : std::string{};
}

bool FleetClient::shutdown_replica(std::size_t replica) {
  std::shared_ptr<Client> client = connect(*slot_at(replica));
  return client != nullptr && client->shutdown_server();
}

std::size_t FleetClient::replica_count() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return slots_.size();
}

FleetClient::Counters FleetClient::counters() const {
  Counters out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.rerouted = rerouted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.redirected = redirected_.load(std::memory_order_relaxed);
  out.fallbacks = fallbacks_.load(std::memory_order_relaxed);
  out.exhausted = exhausted_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(view_mu_);
  out.per_replica.reserve(served_.size());
  for (const auto& count : served_) {
    out.per_replica.push_back(count->load(std::memory_order_relaxed));
  }
  return out;
}

void FleetClient::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  std::size_t count = replica_count();
  for (std::size_t i = 0; i < count; ++i) {
    Slot* slot = slot_at(i);
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->client != nullptr) slot->client->close();
  }
}

}  // namespace lbs::service
