// THE elasticity drill (tsan + elasticity labels): three TCP replicas
// under continuous client load, a fourth replica joins via the two-phase
// protocol, then one original drains — all without restarting anything.
// The assertions are the PR's acceptance criteria:
//
//   - zero request failures beyond typed retries: every response the
//     load threads see is Ok (WrongEpoch redirects are followed inside
//     FleetClient and never surface);
//   - the joiner serves its partition with ZERO re-solves — its solve
//     counter stays 0 through the whole drill while its handoff counter
//     equals exactly the keys the new ring assigns it (the snapshot
//     handoff proof);
//   - fleet-wide, every key is solved exactly once, reshard
//     notwithstanding;
//   - every client converges to the final epoch with no restart, via
//     WrongEpoch redirects alone.
//
// LBS_ELASTICITY_ITERS repeats the drill (nightly soak: 8);
// LBS_ELASTICITY_STATS appends one JSONL line of convergence stats per
// iteration for the nightly artifact.
#include "service/admin.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "service/fleet.hpp"
#include "service/server.hpp"
#include "support/error.hpp"

namespace lbs::service {
namespace {

constexpr long long kItems = 5000;

int drill_iters() {
  const char* env = std::getenv("LBS_ELASTICITY_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

// One JSONL stats line per drill iteration, for the nightly artifact.
// No-op unless LBS_ELASTICITY_STATS names a file.
void export_stats(const std::string& scenario,
                  const std::vector<std::pair<std::string, double>>& fields) {
  const char* path = std::getenv("LBS_ELASTICITY_STATS");
  if (path == nullptr || *path == '\0') return;
  std::ostringstream line;
  line << "{\"scenario\":\"" << scenario << "\"";
  for (const auto& [key, value] : fields) {
    line << ",\"" << key << "\":" << value;
  }
  line << "}\n";
  std::ofstream out(path, std::ios::app);
  out << line.str();
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
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(0.2);
  platform.processors.push_back(root);
  return platform;
}

std::uint64_t key_hash(int seed) {
  core::PlanKey key =
      core::make_plan_key(seeded_platform(seed), kItems, core::Algorithm::Auto);
  return static_cast<std::uint64_t>(core::PlanKeyHash{}(key));
}

std::string temp_path(const std::string& tag) {
  static int counter = 0;
  return "/tmp/lbs_elasticity_test_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(++counter);
}

std::unique_ptr<Server> start_replica() {
  ServerOptions options;
  options.endpoint = Endpoint::tcp("127.0.0.1", 0);
  auto server = std::make_unique<Server>(options);
  server->start();
  EXPECT_NE(server->endpoint().port, 0) << "kernel did not assign a port";
  return server;
}

TEST(ServiceElasticity, MembershipExchangeQueriesAndAdopts) {
  auto server = start_replica();

  // Epoch-0 exchange is a pure query: a fresh server holds the empty
  // unversioned view.
  auto before = admin::fetch_view(server->endpoint());
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_TRUE(before->members.empty());

  MembershipView view;
  view.epoch = 5;
  view.members = {Member{server->endpoint(), ReplicaState::Serving}};
  admin::PushResult pushed = admin::push_view(view, {server->endpoint()});
  EXPECT_EQ(pushed.acked, 1);
  EXPECT_TRUE(pushed.errors.empty());
  EXPECT_EQ(server->membership_view(), view);
  EXPECT_EQ(server->counters().membership_updates, 1u);

  // Replaying an older (or equal) epoch is a no-op — the ack still
  // carries the newer view the server kept.
  MembershipView stale = view;
  stale.epoch = 3;
  admin::PushResult replay = admin::push_view(stale, {server->endpoint()});
  EXPECT_EQ(replay.acked, 1);
  EXPECT_EQ(server->membership_view().epoch, 5u);
  EXPECT_EQ(server->counters().membership_updates, 1u);

  server->stop();
}

TEST(ServiceElasticity, MembershipFileIsReadOnceAtStart) {
  // A cold restart rejoins at the fleet's epoch from its view file; later
  // views travel by frame and redirect, so the file is never re-read.
  const std::string path = temp_path("view");
  MembershipView v3;
  v3.epoch = 3;
  v3.members = {Member{Endpoint::tcp("127.0.0.1", 1), ReplicaState::Serving}};
  write_view_file(path, v3);

  ServerOptions options;
  options.endpoint = Endpoint::tcp("127.0.0.1", 0);
  options.membership_path = path;
  Server server(options);
  server.start();
  EXPECT_EQ(server.membership_view(), v3);

  MembershipView v4 = v3;
  v4.epoch = 4;
  write_view_file(path, v4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(server.membership_view().epoch, 3u);
  server.stop();

  // A garbage file leaves the server at epoch 0, counted, not crashed.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "epoch banana\n";
  }
  obs::Metrics metrics;
  ServerOptions garbage_options = options;
  garbage_options.metrics = &metrics;
  Server garbage(garbage_options);
  garbage.start();
  EXPECT_EQ(garbage.membership_view().epoch, 0u);
  EXPECT_EQ(metrics.counter("service.membership.file_rejected").value(), 1u);
  garbage.stop();
  std::remove(path.c_str());
}

// The full drill described in the file header.
TEST(ServiceElasticity, JoinAndDrainUnderLoadWithZeroResolves) {
  constexpr int kKeys = 32;
  constexpr int kLoadThreads = 4;

  for (int iter = 0; iter < drill_iters(); ++iter) {
    // Four replicas up; the fleet starts as the first three.
    std::vector<std::unique_ptr<Server>> servers;
    for (int i = 0; i < 4; ++i) servers.push_back(start_replica());
    const Endpoint joiner = servers[3]->endpoint();
    const Endpoint drained = servers[0]->endpoint();

    MembershipView v1;
    v1.epoch = 1;
    for (int i = 0; i < 3; ++i) {
      v1.members.push_back(Member{servers[i]->endpoint(), ReplicaState::Serving});
    }
    admin::PushResult seeded = admin::push_view(
        v1, {servers[0]->endpoint(), servers[1]->endpoint(),
             servers[2]->endpoint()});
    ASSERT_TRUE(seeded.errors.empty());

    obs::Metrics metrics;
    FleetOptions options;
    options.view = v1;
    options.metrics = &metrics;
    FleetClient client(options);

    // Warm every key on its home replica.
    for (int seed = 0; seed < kKeys; ++seed) {
      PlanResponse response = client.plan(seeded_platform(seed), kItems);
      ASSERT_EQ(response.status, PlanStatus::Ok) << response.message;
      ASSERT_FALSE(response.local_fallback);
    }
    std::uint64_t warm_solved = 0;
    for (const auto& server : servers) warm_solved += server->counters().solved;
    ASSERT_EQ(warm_solved, static_cast<std::uint64_t>(kKeys));
    ASSERT_EQ(servers[3]->counters().solved, 0u);

    // Continuous load over the warmed key pool while membership churns.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> load_requests{0};
    std::atomic<std::uint64_t> load_failures{0};
    std::vector<std::thread> load;
    for (int t = 0; t < kLoadThreads; ++t) {
      load.emplace_back([&, t] {
        std::mt19937 rng(static_cast<unsigned>(1000 * iter + t));
        while (!stop.load(std::memory_order_acquire)) {
          int seed = static_cast<int>(rng() % kKeys);
          PlanResponse response = client.plan(seeded_platform(seed), kItems);
          load_requests.fetch_add(1, std::memory_order_relaxed);
          if (response.status != PlanStatus::Ok || response.local_fallback) {
            load_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    // Join the fourth replica (epochs 2 and 3), then drain an original
    // (epoch 4), all mid-load.
    auto base = admin::fetch_view(servers[1]->endpoint());
    ASSERT_TRUE(base.has_value());
    admin::PushResult joined = admin::join_fleet(*base, joiner);
    EXPECT_TRUE(joined.errors.empty()) << joined.errors.front();
    EXPECT_EQ(joined.view.epoch, 3u);

    admin::PushResult drained_push = admin::drain_replica(joined.view, drained);
    EXPECT_TRUE(drained_push.errors.empty()) << drained_push.errors.front();
    EXPECT_EQ(drained_push.view.epoch, 4u);
    const std::uint64_t drained_solved_at_drain = servers[0]->counters().solved;

    // Let the load run against the final membership for a moment, then
    // replay every key once from this thread — the convergence sweep.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true, std::memory_order_release);
    for (auto& thread : load) thread.join();

    for (int seed = 0; seed < kKeys; ++seed) {
      PlanResponse response = client.plan(seeded_platform(seed), kItems);
      EXPECT_EQ(response.status, PlanStatus::Ok) << response.message;
      EXPECT_FALSE(response.local_fallback);
    }

    // Zero failures beyond typed retries: the load threads saw Ok, only Ok.
    EXPECT_EQ(load_failures.load(), 0u);
    EXPECT_GT(load_requests.load(), 0u);

    // THE zero-re-solve proof. The joiner answered its whole partition
    // from the snapshot handoff: solve counter still zero, handoff
    // counter exactly the keys the final ring assigns it (every one was
    // in a donor's cache). Fleet-wide, nothing was ever solved twice.
    support::HashRing final_ring = ring_of(drained_push.view);
    std::uint64_t joiner_owned = 0;
    for (int seed = 0; seed < kKeys; ++seed) {
      if (final_ring.node_for(key_hash(seed)) == joiner.to_string()) {
        ++joiner_owned;
      }
    }
    Server::Counters joiner_counters = servers[3]->counters();
    EXPECT_EQ(joiner_counters.solved, 0u) << "joiner re-solved handed-off keys";
    EXPECT_GE(joiner_counters.handoff_entries, joiner_owned);
    std::uint64_t total_solved = 0;
    for (const auto& server : servers) total_solved += server->counters().solved;
    EXPECT_EQ(total_solved, static_cast<std::uint64_t>(kKeys))
        << "a reshard caused re-solves";

    // The drained replica took no new unique work after the drain.
    EXPECT_EQ(servers[0]->counters().solved, drained_solved_at_drain);

    // Every client converged to the final epoch without restart.
    EXPECT_EQ(client.epoch(), 4u);
    FleetClient::Counters fleet_counters = client.counters();
    EXPECT_EQ(fleet_counters.rejected, 0u);
    EXPECT_EQ(fleet_counters.fallbacks, 0u);
    EXPECT_EQ(fleet_counters.exhausted, 0u);
    EXPECT_GE(fleet_counters.redirected, 1u) << "client never saw a redirect";

    // Direct contract check on the drained replica: cached keys still
    // serve (in-flight/old work completes), a NEW key is redirected with
    // the current view.
    {
      Client direct(drained.to_string());
      direct.set_epoch(drained_push.view.epoch);
      int drained_seed = -1;
      support::HashRing v1_ring = ring_of(v1);
      for (int seed = 0; seed < kKeys; ++seed) {
        if (v1_ring.node_for(key_hash(seed)) == drained.to_string()) {
          drained_seed = seed;
          break;
        }
      }
      if (drained_seed >= 0) {
        PlanResponse cached =
            direct.plan(seeded_platform(drained_seed), kItems);
        EXPECT_EQ(cached.status, PlanStatus::Ok);
        EXPECT_TRUE(cached.cache_hit);
      }
      PlanResponse fresh = direct.plan(seeded_platform(100000 + iter), kItems);
      ASSERT_EQ(fresh.status, PlanStatus::WrongEpoch);
      EXPECT_EQ(fresh.current_view, drained_push.view);
      direct.close();
    }

    export_stats("join_drain_drill",
                 {{"iter", static_cast<double>(iter)},
                  {"load_requests", static_cast<double>(load_requests.load())},
                  {"load_failures", static_cast<double>(load_failures.load())},
                  {"joiner_owned_keys", static_cast<double>(joiner_owned)},
                  {"joiner_handoff_entries",
                   static_cast<double>(joiner_counters.handoff_entries)},
                  {"joiner_solved", static_cast<double>(joiner_counters.solved)},
                  {"total_solved", static_cast<double>(total_solved)},
                  {"redirected", static_cast<double>(fleet_counters.redirected)},
                  {"rerouted", static_cast<double>(fleet_counters.rerouted)},
                  {"final_epoch", static_cast<double>(client.epoch())}});

    client.close();
    for (auto& server : servers) server->stop();
  }
}

}  // namespace
}  // namespace lbs::service
