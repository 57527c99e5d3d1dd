#include "service/fleet.hpp"

#include <sys/stat.h>

#include <utility>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace lbs::service {

namespace {

bool is_transport_failure(PlanStatus status) {
  return status == PlanStatus::Disconnected || status == PlanStatus::Timeout ||
         status == PlanStatus::BreakerOpen;
}

}  // namespace

FleetClient::FleetClient(FleetOptions options)
    : options_(std::move(options)), ring_(options_.virtual_nodes) {
  LBS_CHECK_MSG(options_.retries_per_replica >= 0,
                "retries_per_replica must be >= 0");
  LBS_CHECK_MSG(options_.max_redirects >= 0, "max_redirects must be >= 0");
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
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view_ = std::move(initial);
    install_view_locked();
    LBS_CHECK_MSG(ring_.node_count() > 0,
                  "fleet membership has no serving replica");
  }

  if (!options_.membership_path.empty()) {
    try {
      // Best effort: a missing file just means "start from the built-in
      // view"; the watcher below picks it up once it appears.
      apply_view(read_view_file(options_.membership_path));
    } catch (const lbs::Error&) {
    }
    if (options_.membership_poll_ms > 0) {
      watch_thread_ = std::thread([this] { membership_watch_loop(); });
    }
  }
}

FleetClient::~FleetClient() { close(); }

void FleetClient::install_view_locked() {
  support::HashRing next(options_.virtual_nodes);
  for (const Member& member : view_.members) {
    std::size_t idx = slot_for_locked(member.endpoint.to_string());
    if (member.state == ReplicaState::Serving) {
      next.add_node(slots_[idx]->endpoint.to_string());
    }
  }
  ring_ = std::move(next);
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

void FleetClient::membership_watch_loop() {
  // Re-read on any (mtime, size) change; adopt() dedups by epoch, so a
  // rewrite of the same view is a no-op.
  long long last_stamp = -2;
  long long last_size = -2;
  while (!watch_stop_.load(std::memory_order_acquire)) {
    struct stat st{};
    long long stamp = -1;
    long long size = -1;
    if (::stat(options_.membership_path.c_str(), &st) == 0) {
      stamp = static_cast<long long>(st.st_mtim.tv_sec) * 1000000000LL +
              st.st_mtim.tv_nsec;
      size = static_cast<long long>(st.st_size);
    }
    if (stamp != last_stamp || size != last_size) {
      last_stamp = stamp;
      last_size = size;
      if (stamp >= 0) {
        try {
          apply_view(read_view_file(options_.membership_path));
        } catch (const lbs::Error&) {
          metrics_->counter("service.fleet.file_rejected").add();
        }
      }
    }
    // Chunked sleep so close() never waits a full poll interval.
    std::uint32_t remaining = options_.membership_poll_ms;
    while (remaining > 0 && !watch_stop_.load(std::memory_order_acquire)) {
      std::uint32_t chunk = remaining < 10 ? remaining : 10;
      std::this_thread::sleep_for(std::chrono::milliseconds(chunk));
      remaining -= chunk;
    }
  }
}

Client* FleetClient::ensure_client(Slot& slot) {
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.client != nullptr) return slot.client.get();
  auto now = std::chrono::steady_clock::now();
  if (now < slot.down_until) return nullptr;

  ClientOptions client_options = options_.client;
  client_options.endpoint = slot.endpoint;
  client_options.socket_path.clear();
  client_options.local_fallback = false;  // the fleet owns the fallback decision
  client_options.metrics = metrics_;
  try {
    slot.client = std::make_unique<Client>(std::move(client_options));
  } catch (const lbs::Error&) {
    slot.down_until =
        now + std::chrono::milliseconds(options_.down_retry_ms);
    metrics_->counter("service.fleet.dial_failures").add();
    return nullptr;
  }
  return slot.client.get();
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
  for (int redirect = 0; redirect <= options_.max_redirects; ++redirect) {
    // Snapshot the routing decision under the lock; the ring's node
    // strings must be copied because a concurrent apply_view may rebuild
    // the ring while we walk the candidates.
    std::uint64_t epoch = 0;
    std::vector<std::string> candidates;
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      epoch = view_.epoch;
      std::size_t attempts =
          options_.route_attempts > 0
              ? static_cast<std::size_t>(options_.route_attempts)
              : ring_.node_count();
      candidates.reserve(attempts);
      for (const std::string* node : ring_.nodes_for(hash, attempts)) {
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
      Client* client = ensure_client(*slot);
      if (client == nullptr) continue;  // down cooldown, or the dial just failed

      client->set_epoch(epoch);
      PlanResponse response;
      bool gossiped = false;
      for (;;) {
        response = client->plan_with_retry(
            platform, items, algorithm, options_.retries_per_replica);
        if (response.status == PlanStatus::WrongEpoch && !gossiped &&
            response.current_view.epoch != 0 &&
            response.current_view.epoch < epoch) {
          // The REPLICA is behind: the admin's pushes are sequential, so
          // a client can learn epoch N+1 from one replica while another
          // still holds N — and that laggard must not solve keys it no
          // longer owns. Gossip our newer view (the replica's adopt runs
          // its handoff pull before acking), then retry this candidate
          // once with a warm cache waiting.
          gossiped = true;
          bool pushed = false;
          try {
            pushed = client->membership_exchange(membership_view()).has_value();
          } catch (const lbs::Error&) {
          }
          if (pushed) {
            metrics_->counter("service.fleet.view_pushes").add();
            continue;
          }
        }
        break;
      }
      if (response.status == PlanStatus::WrongEpoch) {
        // Never keep walking the candidate list after a WrongEpoch: the
        // failover peers would be asked under an epoch we already know
        // is suspect, and a peer whose epoch happens to match ours would
        // dutifully solve a key it does not own (an observable re-solve).
        // Either the redirect carries a newer view (adopt it), or a
        // concurrent thread already advanced view_ past our snapshot —
        // both mean the same thing: re-snapshot and re-route from the
        // top, bounded by max_redirects.
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
    return plan_locally(platform, items, algorithm, options_.fallback_dp_threads,
                        "fleet: all replicas failed");
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
  Client* client = ensure_client(*slot_at(replica));
  return client != nullptr && client->ping();
}

std::string FleetClient::stats(std::size_t replica) {
  Client* client = ensure_client(*slot_at(replica));
  return client != nullptr ? client->server_stats() : std::string{};
}

bool FleetClient::shutdown_replica(std::size_t replica) {
  Client* client = ensure_client(*slot_at(replica));
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
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    if (closed_) return;
    closed_ = true;
  }
  watch_stop_.store(true, std::memory_order_release);
  if (watch_thread_.joinable()) watch_thread_.join();
  std::size_t count = replica_count();
  for (std::size_t i = 0; i < count; ++i) {
    Slot* slot = slot_at(i);
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->client != nullptr) slot->client->close();
  }
}

}  // namespace lbs::service
