// FleetClient — consistent-hash routing over N lbsd replicas, and the one
// place that retries, backs off, trips breakers, re-dials and falls back.
//
// One lbsd is a single point of failure and a single cache; a fleet of
// N replicas behind naive round-robin would be N duplicated caches (every
// replica eventually solves every hot key). FleetClient instead routes
// each request by its PlanKey over a support::HashRing keyed on the
// replicas' endpoints, so the fleet's ShardedPlanCaches PARTITION the key
// space: a key has exactly one home replica, aggregate cache capacity is
// the sum of the replicas', and a warm key is warm fleet-wide because
// every client routes it to the same place. The same key → same replica
// property is also what keeps request coalescing effective under a fleet:
// k identical concurrent requests from many FleetClients still meet in
// one replica's in-flight map and cost one dp.solve. A one-replica
// FleetClient is the resilient client for a single daemon.
//
// Membership is LIVE (service/membership.hpp): the client holds a
// versioned MembershipView and rebuilds its ring from the view's serving
// members whenever a newer epoch arrives — from an explicit apply_view
// (lbsctl, tests) or from a WrongEpoch redirect: every plan request
// carries the client's epoch, and a replica that knows a newer view
// answers with that view instead of a plan. The client adopts it,
// re-rings, and re-routes — convergence without restart. Per-replica
// breaker state survives resharding: slots are append-only and keyed by
// endpoint, so a membership change never resets a breaker or a counter.
//
// Failure handling, per candidate replica:
//   - attempts: Rejected replies and transport failures (Disconnected /
//     Timeout) retry after a jittered, capped, exponentially growing
//     sleep seeded from the server's retry_after_ms hint, up to
//     retries_per_replica times. Ok, Error and WrongEpoch end the loop.
//   - circuit breaker: breaker_threshold consecutive transport failures
//     (a refused dial included) open the replica's breaker; for
//     breaker_cooldown_ms its attempts fail fast with BreakerOpen. After
//     the cooldown an attempt goes through (half-open): success closes
//     the breaker, failure re-arms the cooldown. 0 disables it.
//   - re-dial: a replica whose connection died is dialed afresh on its
//     next attempt.
//   - failover: a candidate that ends in a transport status
//     (Disconnected / Timeout / BreakerOpen) REROUTES the request to the
//     next distinct node on the ring — the deterministic failover order,
//     so even failover traffic concentrates on one substitute replica
//     and stays cacheable.
//   - fallback: when every candidate fails at transport level and
//     local_fallback is set, the plan degrades to the in-process planner
//     (same engine, flagged local_fallback).
//
// Rejected (backpressure) is NOT rerouted: the home replica is alive,
// merely saturated; spilling its keys onto neighbors would melt the
// partition exactly when the fleet is hottest. It is counted in its own
// bucket (Counters::rejected), never as a reroute.
//
// Thread-safe: many threads may call plan() concurrently; per-replica
// connections are dialed on first use under a per-slot mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/client.hpp"
#include "service/membership.hpp"
#include "service/socket.hpp"
#include "support/hash_ring.hpp"
#include "support/rng.hpp"

namespace lbs::service {

struct FleetOptions {
  // The replica endpoints (initial ring membership). Order is irrelevant
  // to routing — the ring hashes endpoint identities — but indexes into
  // counters().per_replica follow this vector. Must be non-empty with
  // distinct endpoints unless `view` supplies the membership instead.
  std::vector<Endpoint> replicas;

  // Explicit initial membership view (for instance read_view_file of the
  // fleet's view file). When its member list is empty the view is
  // synthesized from `replicas` (all serving, epoch 0 — the unversioned
  // pre-elasticity fleet). A nonzero epoch makes every plan request
  // carry it, enabling WrongEpoch redirects.
  MembershipView view;

  // Per-replica connection deadlines (ClientOptions semantics). 0: none.
  std::uint32_t request_timeout_ms = 0;
  std::uint32_t control_timeout_ms = 0;

  // Per-replica circuit breaker: this many *consecutive* transport
  // failures open it for breaker_cooldown_ms (0 disables the breaker).
  int breaker_threshold = 5;
  std::uint32_t breaker_cooldown_ms = 1000;

  // Retries per candidate replica after its first attempt. Small on
  // purpose: a replica that keeps failing its transport is better served
  // by rerouting than by more patience.
  int retries_per_replica = 2;

  // Retry sleeps never exceed this (backoff_with_jitter's cap).
  std::uint32_t backoff_cap_ms = 2000;

  // Seed for the backoff jitter stream. 0: derive a per-client seed (two
  // clients must not jitter in lockstep — that is the bug jitter fixes).
  std::uint64_t jitter_seed = 0;

  // After every candidate fails at transport level: plan in-process
  // (core::plan_scatter) instead of returning the typed failure.
  bool local_fallback = false;

  // service.fleet.* and service.client.* counters; null falls back to
  // obs::global_metrics().
  obs::Metrics* metrics = nullptr;
};

// The retry sleep schedule, exposed for tests: exponential in `attempt`
// (0-based) from max(hint_ms, base_ms), capped at cap_ms, then jittered
// uniformly over [½·b, 3⁄2·b]. Always returns >= 1.
[[nodiscard]] std::uint32_t backoff_with_jitter(std::uint32_t hint_ms, int attempt,
                                                std::uint32_t base_ms,
                                                std::uint32_t cap_ms,
                                                support::Rng& rng);

class FleetClient {
 public:
  explicit FleetClient(FleetOptions options);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  // Routes by PlanKey and returns the first conclusive response (Ok /
  // Error / Rejected); transport failures walk the ring, WrongEpoch
  // redirects adopt the newer view and re-route. Never throws on
  // transport trouble — a fleet with every replica down returns the last
  // typed failure (or the local fallback's plan).
  [[nodiscard]] PlanResponse plan(const model::Platform& platform, long long items,
                                  core::Algorithm algorithm = core::Algorithm::Auto);

  // The replica index (into counters().per_replica; construction order
  // for the initial membership) a key routes to first under the CURRENT
  // ring — the partition proof's oracle, identical to what plan() uses.
  [[nodiscard]] std::size_t route_of(const model::Platform& platform,
                                     long long items,
                                     core::Algorithm algorithm =
                                         core::Algorithm::Auto) const;

  // Control-plane helpers addressed by replica index. ping returns false
  // (and stats empty) when the replica cannot be reached. They neither
  // consult nor feed the breaker.
  [[nodiscard]] bool ping(std::size_t replica);
  [[nodiscard]] std::string stats(std::size_t replica);
  bool shutdown_replica(std::size_t replica);

  // The membership this client currently routes by, and the one
  // convergence entry point: apply_view adopts iff strictly newer,
  // rebuilds the ring from the serving members, and returns whether it
  // won. Slots (breakers, counters) are never reset by a view change.
  [[nodiscard]] MembershipView membership_view() const;
  [[nodiscard]] std::uint64_t epoch() const;
  bool apply_view(const MembershipView& update);

  struct Counters {
    std::uint64_t requests = 0;    // plan() calls
    std::uint64_t rerouted = 0;    // Ok/Error served by a non-home replica
    std::uint64_t rejected = 0;    // backpressure replies (own bucket —
                                   // the replica is up, not a reroute)
    std::uint64_t redirected = 0;  // WrongEpoch redirects followed
    std::uint64_t fallbacks = 0;   // local in-process plans
    std::uint64_t exhausted = 0;   // every candidate failed, no fallback
    std::vector<std::uint64_t> per_replica;  // conclusive responses served
  };
  [[nodiscard]] Counters counters() const;

  [[nodiscard]] const FleetOptions& options() const { return options_; }
  [[nodiscard]] std::size_t replica_count() const;

  // Closes every per-replica connection. Terminal.
  void close();

 private:
  using TimePoint = std::chrono::steady_clock::time_point;
  struct Slot {
    Endpoint endpoint;
    std::mutex mu;  // guards client and the breaker state below
    // Shared so a re-dial never frees a Client another thread still uses.
    std::shared_ptr<Client> client;
    int consecutive_failures = 0;
    bool breaker_tripped = false;
    TimePoint tripped_until{};
  };

  // The live connection to the slot's replica, dialed afresh when there
  // is none or it died; nullptr when the dial fails or after close().
  [[nodiscard]] std::shared_ptr<Client> connect(Slot& slot);
  // The attempt loop against one replica (see the file header).
  [[nodiscard]] PlanResponse plan_on(Slot& slot, const model::Platform& platform,
                                     long long items, core::Algorithm algorithm,
                                     std::uint64_t epoch);
  [[nodiscard]] bool breaker_allows(Slot& slot);
  void record_outcome(Slot& slot, PlanStatus status);
  // Bounds-checked slot lookup under view_mu_ (Slot objects are
  // heap-stable; the vector holding them is not).
  [[nodiscard]] Slot* slot_at(std::size_t replica) const;

  // Rebuilds ring_ from view_ and appends slots for unseen members.
  // Requires view_mu_.
  void install_view_locked();
  [[nodiscard]] std::size_t slot_for_locked(const std::string& spec);

  FleetOptions options_;
  obs::Metrics* metrics_ = nullptr;

  // view_ + ring_ + the slot index are one consistent unit under
  // view_mu_. Slots are append-only: a member that leaves the view keeps
  // its slot (and its counters and breaker history) in case it returns.
  mutable std::mutex view_mu_;
  MembershipView view_;
  support::HashRing ring_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<std::string, std::size_t> slot_index_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> served_;
  std::atomic<bool> closed_{false};

  std::mutex rng_mu_;
  support::Rng rng_;  // jitter stream, guarded by rng_mu_

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> redirected_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace lbs::service
