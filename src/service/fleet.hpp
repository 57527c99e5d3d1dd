// FleetClient — consistent-hash routing over N lbsd replicas.
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
// one replica's in-flight map and cost one dp.solve.
//
// Membership is LIVE (service/membership.hpp): the client holds a
// versioned MembershipView and rebuilds its ring from the view's serving
// members whenever a newer epoch arrives — from an explicit apply_view
// (lbsctl, tests), from the watched membership file, or from a
// WrongEpoch redirect: every plan request carries the client's epoch,
// and a replica that knows a newer view answers with that view instead
// of a plan. The client adopts it, re-rings, and re-routes — convergence
// without restart, no matter which path the news took. Per-replica
// breaker state survives resharding: slots are append-only and keyed by
// endpoint, so a membership change never resets a breaker or a counter.
//
// Failure handling is layered:
//   - each replica gets its own service::Client, with the per-connection
//     deadline/backoff/circuit-breaker machinery from client.hpp;
//   - when a replica's breaker is open, its dial fails, or a request
//     comes back with a transport status (Disconnected / Timeout /
//     BreakerOpen), the request REROUTES to the next distinct node on
//     the ring — the deterministic failover order, so even failover
//     traffic concentrates on one substitute replica and stays
//     cacheable. A replica that refused a dial is marked down for
//     down_retry_ms before the next dial attempt.
//   - when every candidate replica fails at transport level and
//     local_fallback is set, the plan degrades to the in-process
//     planner (same engine, flagged local_fallback), exactly like the
//     single-daemon client.
//
// Rejected (backpressure) is NOT rerouted by default: the home replica is
// alive, merely saturated; spilling its keys onto neighbors would melt
// the partition exactly when the fleet is hottest. It is counted in its
// own bucket (Counters::rejected), never as a reroute.
//
// Thread-safe: many threads may call plan() concurrently; per-replica
// clients are created on first use under a per-slot mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/client.hpp"
#include "service/membership.hpp"
#include "service/socket.hpp"
#include "support/hash_ring.hpp"

namespace lbs::service {

struct FleetOptions {
  // The replica endpoints (initial ring membership). Order is irrelevant
  // to routing — the ring hashes endpoint identities — but indexes into
  // counters().per_replica follow this vector. Must be non-empty with
  // distinct endpoints unless `view` supplies the membership instead.
  std::vector<Endpoint> replicas;

  // Explicit initial membership view. When its member list is empty the
  // view is synthesized from `replicas` (all serving, epoch 0 — the
  // unversioned pre-elasticity fleet). A nonzero epoch makes every plan
  // request carry it, enabling WrongEpoch redirects.
  MembershipView view;

  // A membership view file to adopt at construction and watch by mtime
  // (poll interval below; 0 disables watching). Same convergence rule as
  // every other path: newer epoch wins.
  std::string membership_path;
  std::uint32_t membership_poll_ms = 200;

  // Ring geometry (support::HashRing).
  int virtual_nodes = 128;

  // Template for every per-replica connection: deadlines, backoff,
  // breaker. endpoint/socket_path are overwritten per replica, and
  // local_fallback is forced off (the fleet owns the fallback decision).
  ClientOptions client;

  // plan_with_retry budget per replica attempt. Small on purpose: a
  // replica that fails this many consecutive transports is better served
  // by rerouting than by more patience.
  int retries_per_replica = 2;

  // How many distinct ring nodes to try before giving up. 0 = all.
  int route_attempts = 0;

  // How many WrongEpoch redirects one plan() call may follow. Each one
  // adopts a strictly newer view, so this bounds pathological churn, not
  // the normal case (one reshard = one redirect).
  int max_redirects = 3;

  // A replica whose dial failed is not re-dialed for this long; requests
  // reroute past it meanwhile.
  std::uint32_t down_retry_ms = 200;

  // After every candidate fails at transport level: plan in-process
  // (core::plan_scatter) instead of returning the typed failure.
  bool local_fallback = false;
  int fallback_dp_threads = 1;

  // service.fleet.* counters/histograms; null falls back to
  // obs::global_metrics().
  obs::Metrics* metrics = nullptr;
};

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
  // (and stats empty) when the replica cannot be reached.
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

  // Closes every per-replica connection and stops the watcher. Terminal.
  void close();

 private:
  struct Slot {
    Endpoint endpoint;
    std::mutex mu;  // guards client creation/teardown and down_until
    std::unique_ptr<Client> client;
    std::chrono::steady_clock::time_point down_until{};
  };

  // Dials if needed; nullptr while the replica is marked down or the dial
  // fails (which arms down_until).
  [[nodiscard]] Client* ensure_client(Slot& slot);
  // Bounds-checked slot lookup under view_mu_ (Slot objects are
  // heap-stable; the vector holding them is not).
  [[nodiscard]] Slot* slot_at(std::size_t replica) const;

  // Rebuilds ring_ from view_ and appends slots for unseen members.
  // Requires view_mu_.
  void install_view_locked();
  [[nodiscard]] std::size_t slot_for_locked(const std::string& spec);
  void membership_watch_loop();

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

  std::atomic<bool> watch_stop_{false};
  std::thread watch_thread_;
  bool closed_ = false;  // guarded by view_mu_

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> redirected_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
  std::atomic<std::uint64_t> exhausted_{0};
};

}  // namespace lbs::service
