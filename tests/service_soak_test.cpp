// Service soak: mixed traffic (hot keys, cold keys, pings, stats, a
// backpressure-sized queue) hammered by concurrent clients, with every
// Ok response checked bit-exactly against the direct planner.
//
// Sized to seconds by default so it runs in every ctest sweep; the
// nightly CI job scales it up with LBS_SOAK_ITERS (a multiplier, like
// LBS_DIFFERENTIAL_ITERS for the differential suite).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "model/testbed.hpp"
#include "service/fleet.hpp"
#include "service/server.hpp"

namespace lbs::service {
namespace {

int soak_multiplier() {
  const char* raw = std::getenv("LBS_SOAK_ITERS");
  if (raw == nullptr) return 1;
  int value = std::atoi(raw);
  return value >= 1 ? value : 1;
}

model::Platform seeded_platform(int seed) {
  model::Platform platform;
  model::Processor worker;
  worker.label = "worker";
  worker.comm = model::Cost::linear(0.5);
  worker.comp = model::Cost::linear(0.1 + 0.001 * seed);
  platform.processors.push_back(worker);
  model::Processor second;
  second.label = "second";
  second.comm = model::Cost::affine(0.2, 0.01);
  second.comp = model::Cost::linear(0.15);
  platform.processors.push_back(second);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(0.2);
  platform.processors.push_back(root);
  return platform;
}

TEST(ServiceSoak, MixedTrafficUnderConcurrency) {
  const int multiplier = soak_multiplier();
  const int kClients = 8;
  const int kPerClient = 25 * multiplier;

  ServerOptions options;
  options.socket_path = "/tmp/lbs_service_soak_" + std::to_string(::getpid()) +
                        ".sock";
  options.cache_shards = 4;
  options.cache_capacity_per_shard = 16;  // smaller than the key space: evictions
  options.max_queue = 8;                  // small: exercises backpressure
  options.retry_after_ms = 5;
  Server server(options);
  server.start();

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FleetOptions client_options;
      client_options.replicas = {Endpoint::unix_path(options.socket_path)};
      client_options.retries_per_replica = 20;
      FleetClient client(client_options);
      for (int i = 0; i < kPerClient; ++i) {
        // Traffic mix: every 8th op is a control message, the rest plans.
        // Seeds cycle a window of 40 keys (some hot overlap across
        // clients, some cold) against a 64-entry cache.
        if (i % 8 == 7) {
          if (!client.ping(0)) failures.fetch_add(1);
          continue;
        }
        int seed = (c * 7 + i * 3) % 40;
        long long items = 1000 + 50 * seed;
        auto platform = seeded_platform(seed);
        PlanResponse response = client.plan(platform, items);
        if (response.status != PlanStatus::Ok) {
          failures.fetch_add(1);
          continue;
        }
        auto direct = core::plan_scatter(platform, items);
        if (response.counts != direct.distribution.counts) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);

  auto counters = server.counters();
  EXPECT_GT(counters.requests, 0u);
  EXPECT_GT(counters.cache_hits, 0u);  // hot keys repeat across clients
  EXPECT_EQ(counters.errors, 0u);
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace lbs::service
