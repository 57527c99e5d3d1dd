// Fleet chaos drill: kill one replica mid-load and prove the fleet's
// three survival properties at once —
//
//   1. Correct-or-typed: while the victim is down, every request either
//      returns a plan that matches the in-process planner bit-for-bit
//      (rerouted via the ring's failover sequence to the next distinct
//      node) or a typed transport status. Never a hang, never a wrong
//      plan, never an exception out of plan().
//   2. Rerouting actually happens: the victim's keys are served by
//      surviving replicas while it is down (counters().rerouted > 0).
//   3. Warm restart of the PARTITION: each replica snapshots its OWN
//      cache on stop; the restarted victim warm-starts from its own file
//      and serves its keys as cache hits without re-solving anything.
//
// The kill-restart cycle count scales with LBS_CHAOS_ITERS (nightly CI
// raises it; the default keeps the suite fast on every push). Unix
// sockets on purpose: the restarted replica rebinds the same path with
// no TIME_WAIT/port-reuse races.
#include "service/fleet.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "service/server.hpp"

namespace lbs::service {
namespace {

std::string test_path(const char* stem) {
  static int counter = 0;
  return "/tmp/lbs_fleet_chaos_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + "_" + stem;
}

// A platform whose worker slope varies with `seed`: distinct PlanKeys.
model::Platform seeded_platform(int seed) {
  model::Platform platform;
  model::Processor worker;
  worker.label = "worker";
  worker.comm = model::Cost::linear(0.5);
  worker.comp = model::Cost::tabulated(
      {{10, 1.0 + 0.01 * seed}, {100, 9.0 + 0.01 * seed}});
  platform.processors.push_back(worker);
  model::Processor root;
  root.label = "root";
  root.comp = model::Cost::linear(0.2);
  root.comm = model::Cost::zero();
  platform.processors.push_back(root);
  return platform;
}

void expect_correct_or_typed(const PlanResponse& response,
                             const model::Platform& platform, long long items) {
  if (response.status == PlanStatus::Ok) {
    core::PlannerOptions exact;
    exact.algorithm = core::Algorithm::ExactDp;
    auto direct = core::plan_scatter(platform, items, exact);
    EXPECT_EQ(response.counts, direct.distribution.counts)
        << "a WRONG plan slipped through";
    EXPECT_DOUBLE_EQ(response.predicted_makespan, direct.predicted_makespan);
    return;
  }
  EXPECT_TRUE(response.status == PlanStatus::Disconnected ||
              response.status == PlanStatus::Timeout ||
              response.status == PlanStatus::BreakerOpen ||
              response.status == PlanStatus::Rejected)
      << "untyped failure, status=" << static_cast<int>(response.status)
      << " message=" << response.message;
}

int soak_iterations() {
  const char* env = std::getenv("LBS_CHAOS_ITERS");
  if (env == nullptr) return 2;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 2;
}

ServerOptions replica_options(const std::string& socket, const std::string& snapshot) {
  ServerOptions options;
  options.socket_path = socket;
  options.snapshot_path = snapshot;
  options.warm_start_path = snapshot;  // crash-safe restart idiom
  return options;
}

TEST(ServiceFleetChaos, KillMidLoadReroutesThenWarmRestartsItsPartition) {
  constexpr std::size_t kReplicas = 3;
  constexpr int kKeys = 12;
  constexpr long long kItems = 4000;

  std::vector<std::string> sockets;
  std::vector<std::string> snapshots;
  std::vector<std::unique_ptr<Server>> servers;
  FleetOptions fleet_options;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    sockets.push_back(test_path("replica.sock"));
    snapshots.push_back(test_path("snapshot.bin"));
    servers.push_back(
        std::make_unique<Server>(replica_options(sockets.back(), snapshots.back())));
    servers.back()->start();
    fleet_options.replicas.push_back(Endpoint::unix_path(sockets.back()));
  }
  // Fast failure detection: short deadlines and cooldowns keep the drill
  // quick; correctness must not depend on their exact values.
  fleet_options.retries_per_replica = 1;
  fleet_options.request_timeout_ms = 5000;
  fleet_options.breaker_threshold = 2;
  fleet_options.breaker_cooldown_ms = 100;
  FleetClient fleet(fleet_options);

  // Establish the partition and remember every key's home.
  std::vector<std::size_t> home(kKeys);
  for (int seed = 0; seed < kKeys; ++seed) {
    auto platform = seeded_platform(seed);
    home[static_cast<std::size_t>(seed)] =
        fleet.route_of(platform, kItems, core::Algorithm::ExactDp);
    PlanResponse response = fleet.plan(platform, kItems, core::Algorithm::ExactDp);
    ASSERT_EQ(response.status, PlanStatus::Ok) << response.message;
  }

  // Pick the replica that owns the most keys — killing it must visibly
  // reroute.
  std::vector<int> owned(kReplicas, 0);
  for (int seed = 0; seed < kKeys; ++seed) {
    ++owned[home[static_cast<std::size_t>(seed)]];
  }
  std::size_t victim = 0;
  for (std::size_t r = 1; r < kReplicas; ++r) {
    if (owned[r] > owned[victim]) victim = r;
  }
  ASSERT_GT(owned[victim], 0);

  const int iterations = soak_iterations();
  for (int cycle = 0; cycle < iterations; ++cycle) {
    // Load threads hammer all keys while the victim goes down mid-load.
    std::atomic<bool> load_stop{false};
    std::vector<std::thread> load;
    for (int t = 0; t < 3; ++t) {
      load.emplace_back([&, t] {
        int seed = t;
        while (!load_stop.load()) {
          auto platform = seeded_platform(seed % kKeys);
          PlanResponse response =
              fleet.plan(platform, kItems, core::Algorithm::ExactDp);
          expect_correct_or_typed(response, platform, kItems);
          seed += 1;
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    servers[victim]->stop();  // writes the victim's own snapshot on drain
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // With the victim down, its keys must still resolve correct-or-typed;
    // after the breaker/cooldown settles they reroute to the failover
    // node and come back Ok.
    for (int seed = 0; seed < kKeys; ++seed) {
      auto platform = seeded_platform(seed);
      PlanResponse response =
          fleet.plan(platform, kItems, core::Algorithm::ExactDp);
      expect_correct_or_typed(response, platform, kItems);
    }

    load_stop.store(true);
    for (auto& thread : load) thread.join();

    // Restart the victim from its own snapshot.
    servers[victim] = std::make_unique<Server>(
        replica_options(sockets[victim], snapshots[victim]));
    servers[victim]->start();

    // Give the fleet's breaker a beat to half-open, then prove the warm
    // start: every victim-homed key is a cache HIT on the restarted
    // replica — its partition survived the kill, nothing re-solves.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (int seed = 0; seed < kKeys; ++seed) {
      if (home[static_cast<std::size_t>(seed)] != victim) continue;
      auto platform = seeded_platform(seed);
      PlanResponse response;
      // The first attempt may still land in the cooldown window; the
      // retry loop below is bounded, not open-ended.
      for (int attempt = 0; attempt < 50; ++attempt) {
        response = fleet.plan(platform, kItems, core::Algorithm::ExactDp);
        if (response.status == PlanStatus::Ok && !response.local_fallback) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      ASSERT_EQ(response.status, PlanStatus::Ok)
          << "victim-homed key never recovered: " << response.message;
      EXPECT_TRUE(response.cache_hit)
          << "seed " << seed << " re-solved after warm restart";
    }
    EXPECT_EQ(servers[victim]->counters().solved, 0u)
        << "warm-started replica re-solved its partition";
    EXPECT_GT(servers[victim]->counters().cache_hits, 0u);
  }

  // The kill cycles must have exercised rerouting.
  EXPECT_GT(fleet.counters().rerouted, 0u);

  fleet.close();
  for (auto& server : servers) server->stop();
  for (const auto& snapshot : snapshots) ::unlink(snapshot.c_str());
}

}  // namespace
}  // namespace lbs::service
