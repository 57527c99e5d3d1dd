#include "service/server.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/ordering.hpp"
#include "core/planner.hpp"
#include "model/testbed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/fleet.hpp"

namespace lbs::service {
namespace {

std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/lbs_service_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

model::Platform paper_platform() {
  auto grid = model::paper_testbed();
  return model::make_platform(grid, model::paper_root(grid));
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

TEST(ServiceServer, PlanMatchesDirectPlannerBitExactly) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  Server server(options);
  server.start();

  auto platform = paper_platform();
  Client client(options.socket_path);
  PlanResponse response = client.plan(platform, 817101);

  ASSERT_EQ(response.status, PlanStatus::Ok);
  auto direct = core::plan_scatter(platform, 817101);
  EXPECT_EQ(response.counts, direct.distribution.counts);
  EXPECT_EQ(response.algorithm_used, direct.algorithm_used);
  EXPECT_DOUBLE_EQ(response.predicted_makespan, direct.predicted_makespan);

  // And the displacements the client derives match the planner's.
  EXPECT_EQ(response.displacements(), direct.displacements);
  server.stop();
}

TEST(ServiceServer, RepeatRequestIsACacheHit) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  Server server(options);
  server.start();

  auto platform = seeded_platform(1);
  Client client(options.socket_path);
  PlanResponse first = client.plan(platform, 5000, core::Algorithm::ExactDp);
  PlanResponse second = client.plan(platform, 5000, core::Algorithm::ExactDp);

  ASSERT_EQ(first.status, PlanStatus::Ok);
  ASSERT_EQ(second.status, PlanStatus::Ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.counts, second.counts);
  EXPECT_EQ(server.counters().cache_hits, 1u);
  EXPECT_EQ(server.counters().solved, 1u);
  server.stop();
}

// The coalescing guarantee: k identical concurrent requests cost exactly
// one dp.solve. solve_delay_ms holds the first solve open so the
// remaining k-1 requests provably arrive while it is in flight.
TEST(ServiceServer, ConcurrentIdenticalRequestsCoalesceToOneSolve) {
  constexpr int kRequests = 6;
  obs::Tracer tracer;
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.solve_delay_ms = 300;
  options.tracer = &tracer;
  Server server(options);
  server.start();

  auto platform = seeded_platform(2);
  Client client(options.socket_path);
  std::vector<std::future<PlanResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(client.plan_async(platform, 4000, core::Algorithm::ExactDp));
  }

  int fresh = 0;
  int coalesced = 0;
  std::vector<long long> counts;
  for (auto& future : futures) {
    PlanResponse response = future.get();
    ASSERT_EQ(response.status, PlanStatus::Ok);
    if (counts.empty()) counts = response.counts;
    EXPECT_EQ(response.counts, counts);  // everyone gets the same plan
    if (response.coalesced) {
      ++coalesced;
    } else if (!response.cache_hit) {
      ++fresh;
    }
  }
  EXPECT_EQ(fresh, 1);
  EXPECT_EQ(coalesced, kRequests - 1);
  EXPECT_EQ(server.counters().solved, 1u);
  EXPECT_EQ(server.counters().coalesced,
            static_cast<std::uint64_t>(kRequests - 1));

  // The proof: exactly one dp.solve span in the whole trace. (stop()
  // joins every server thread first, so the collect is race-free.)
  server.stop();
  auto log = tracer.collect();
  EXPECT_EQ(log.of_type(obs::EventType::DpSolve).size(), 1u);
  // And one service.request span per request, k-1 marked coalesced.
  auto spans = log.of_type(obs::EventType::ServiceRequest);
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kRequests));
  int coalesced_spans = 0;
  for (const auto& span : spans) {
    if (span.arg2 == 2) ++coalesced_spans;  // kServedCoalesced
  }
  EXPECT_EQ(coalesced_spans, kRequests - 1);
}

TEST(ServiceServer, FullQueueRejectsWithRetryAfter) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.max_queue = 1;
  options.solve_delay_ms = 300;
  options.retry_after_ms = 77;
  Server server(options);
  server.start();

  Client client(options.socket_path);
  // Distinct keys (no coalescing): the first occupies the solver, the
  // second sits in the depth-1 queue, so one of the rest must bounce.
  std::vector<std::future<PlanResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        client.plan_async(seeded_platform(10 + i), 3000, core::Algorithm::ExactDp));
  }

  int rejected = 0;
  for (auto& future : futures) {
    PlanResponse response = future.get();
    if (response.status == PlanStatus::Rejected) {
      ++rejected;
      EXPECT_EQ(response.retry_after_ms, 77u);
    } else {
      EXPECT_EQ(response.status, PlanStatus::Ok);
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(server.counters().rejected, static_cast<std::uint64_t>(rejected));
  server.stop();
}

TEST(ServiceServer, RetryLoopEventuallySucceeds) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.max_queue = 1;
  options.solve_delay_ms = 50;
  options.retry_after_ms = 20;
  Server server(options);
  server.start();

  Client client(options.socket_path);
  FleetOptions retrying;
  retrying.replicas = {Endpoint::unix_path(options.socket_path)};
  retrying.retries_per_replica = 50;
  FleetClient fleet(retrying);
  // Saturate the queue, then the fleet's retry loop must ride out the
  // Rejections.
  auto filler1 = client.plan_async(seeded_platform(20), 3000, core::Algorithm::ExactDp);
  auto filler2 = client.plan_async(seeded_platform(21), 3000, core::Algorithm::ExactDp);
  PlanResponse response =
      fleet.plan(seeded_platform(22), 3000, core::Algorithm::ExactDp);
  EXPECT_EQ(response.status, PlanStatus::Ok);
  (void)filler1.get();
  (void)filler2.get();
  server.stop();
}

TEST(ServiceServer, AdmissionControlAnswersError) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.max_items = 10000;
  options.max_processors = 4;
  Server server(options);
  server.start();

  Client client(options.socket_path);
  PlanResponse too_many_items = client.plan(seeded_platform(0), 20000);
  EXPECT_EQ(too_many_items.status, PlanStatus::Error);
  EXPECT_NE(too_many_items.message.find("max_items"), std::string::npos);

  PlanResponse too_wide = client.plan(paper_platform(), 100);  // 16 > 4
  EXPECT_EQ(too_wide.status, PlanStatus::Error);
  EXPECT_NE(too_wide.message.find("max_processors"), std::string::npos);
  EXPECT_EQ(server.counters().errors, 2u);
  server.stop();
}

// Whether a multi-terabyte allocation would abort or overcommit instead of
// throwing std::bad_alloc: ASan and TSan allocators abort on oversized
// requests by default, and vm.overcommit_memory = 1 hands the memory out
// and lets the zero-fill run into the OOM killer.
bool huge_allocations_do_not_throw() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  std::ifstream overcommit("/proc/sys/vm/overcommit_memory");
  int mode = 0;
  return overcommit >> mode && mode == 1;
#endif
}

// Admission bounds the request, not the solve: n = 2^40 is exactly the
// default max_items, so it is admitted, and the DP's O(n)-double column
// cannot be allocated. The solve must answer Error, count it, and leave
// the daemon serving.
TEST(ServiceServer, AdmittedOversizedSolveAnswersErrorAndServes) {
  if (huge_allocations_do_not_throw()) {
    GTEST_SKIP() << "a 2^40-item allocation would not throw std::bad_alloc here";
  }
  ServerOptions options;
  options.socket_path = test_socket_path();
  Server server(options);
  server.start();

  Client client(options.socket_path);
  PlanResponse huge =
      client.plan(paper_platform(), options.max_items, core::Algorithm::OptimizedDp);
  EXPECT_EQ(huge.status, PlanStatus::Error);
  EXPECT_FALSE(huge.message.empty());
  EXPECT_EQ(server.counters().errors, 1u);

  PlanResponse ok = client.plan(paper_platform(), 10000, core::Algorithm::OptimizedDp);
  EXPECT_EQ(ok.status, PlanStatus::Ok);
  server.stop();
}

TEST(ServiceServer, PlannerPreconditionFailureAnswersError) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  Server server(options);
  server.start();

  // Forcing the lp-heuristic on chunked (non-affine) costs violates the
  // planner's precondition: the server must answer Error, not die.
  model::Platform platform;
  model::Processor worker;
  worker.label = "chunked";
  worker.comm = model::Cost::chunked(0.1, 5, 1.0);
  worker.comp = model::Cost::linear(0.5);
  platform.processors.push_back(worker);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(1.0);
  platform.processors.push_back(root);

  Client client(options.socket_path);
  PlanResponse response = client.plan(platform, 100, core::Algorithm::LpHeuristic);
  EXPECT_EQ(response.status, PlanStatus::Error);
  EXPECT_FALSE(response.message.empty());

  // The connection survives the error: the next request still works.
  PlanResponse ok = client.plan(platform, 100, core::Algorithm::Auto);
  EXPECT_EQ(ok.status, PlanStatus::Ok);
  server.stop();
}

TEST(ServiceServer, PingStatsAndShutdown) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  Server server(options);
  server.start();

  Client client(options.socket_path);
  EXPECT_TRUE(client.ping());

  (void)client.plan(seeded_platform(3), 1000);
  std::string stats = client.server_stats();
  EXPECT_NE(stats.find("\"service\""), std::string::npos);
  EXPECT_NE(stats.find("\"requests\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"cache\""), std::string::npos);
  EXPECT_NE(stats.find("\"metrics\""), std::string::npos);

  EXPECT_FALSE(server.stop_requested());
  EXPECT_TRUE(client.shutdown_server());
  EXPECT_TRUE(server.wait_until_stop_requested_for(2000));
  server.stop();
}

TEST(ServiceServer, ClientCloseFailsOutstandingFuturesAsDisconnected) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.solve_delay_ms = 400;
  Server server(options);
  server.start();

  Client client(options.socket_path);
  auto future = client.plan_async(seeded_platform(4), 2000, core::Algorithm::ExactDp);
  client.close();
  PlanResponse response = future.get();  // must not hang
  // Either the reply squeaked in before the close, or it is Disconnected.
  EXPECT_TRUE(response.status == PlanStatus::Disconnected ||
              response.status == PlanStatus::Ok);
  EXPECT_FALSE(client.connected());
  server.stop();
}

TEST(ServiceServer, ManyClientsManyKeys) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.cache_shards = 4;
  options.cache_capacity_per_shard = 8;
  Server server(options);
  server.start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FleetOptions client_options;
      client_options.replicas = {Endpoint::unix_path(options.socket_path)};
      client_options.retries_per_replica = 8;
      FleetClient client(client_options);
      for (int i = 0; i < kPerClient; ++i) {
        int seed = (c * kPerClient + i) % 16;  // overlap across clients
        auto platform = seeded_platform(seed);
        PlanResponse response =
            client.plan(platform, 2000 + seed, core::Algorithm::ExactDp);
        if (response.status != PlanStatus::Ok) {
          wrong.fetch_add(1);
          continue;
        }
        auto direct = core::plan_scatter(platform, 2000 + seed,
                                         core::Algorithm::ExactDp);
        if (response.counts != direct.distribution.counts) wrong.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  auto counters = server.counters();
  EXPECT_EQ(counters.requests,
            static_cast<std::uint64_t>(kClients * kPerClient) + counters.rejected);
  server.stop();
}

}  // namespace
}  // namespace lbs::service
