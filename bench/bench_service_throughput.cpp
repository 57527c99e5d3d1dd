// Planning-service throughput: the lbsd daemon under concurrent load.
//
//   ./build/bench/bench_service_throughput [--json <file>]
//
// Three phases against an in-process Server (real sockets, real wire
// protocol, real worker pool):
//
//   1. cache-miss scaling — every request is a unique key, so every
//      request costs a full DP solve. Aggregate throughput with 16
//      concurrent clients vs 1 client measures how well the batched
//      dispatch + sharded cache spread independent solves across cores.
//   2. coalescing proof — 16 clients all request the SAME fresh key, for
//      several rounds, against a dedicated server whose solve_delay_ms
//      holds each solve open until every client has attached (the same
//      idiom as the server unit test). The tracer counts dp.solve spans:
//      exactly one per round regardless of the client count, or the
//      coalescing map is broken. The delay matters: without it, a client
//      arriving in the window between a solve finishing (inflight entry
//      erased) and its result landing in the cache legitimately enqueues
//      a second solve — a benign race, but one that would flake the
//      exact-count gate under load.
//   3. cache-hit serving — 16 clients replay phase 1's warmed keys;
//      requests never touch the queue, throughput is pure sharded-cache
//      reads.
//
// Shape gates are hardware-aware: the 16-vs-1 scaling target is
// min(4, max(0.75, 0.45 * cores)) — ~4x on the 8+-core CI runners the
// acceptance criterion names, while a 1-core container only has to prove
// concurrency does not collapse (no parallel speedup exists to measure).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "model/cost.hpp"
#include "model/platform.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace lbs;

constexpr int kProcessors = 8;
constexpr long long kItemsBase = 20000;  // ~160k DP cells, ~15ms per solve
constexpr int kClientsWide = 16;
constexpr int kSolvesPerPhase = 96;  // unique keys per cache-miss phase
constexpr int kCoalesceRounds = 5;
constexpr int kHitRequestsPerClient = 200;

model::Platform bench_platform() {
  model::Platform platform;
  for (int i = 0; i < kProcessors - 1; ++i) {
    model::Processor proc;
    proc.label = std::string("w").append(std::to_string(i));
    proc.comm = model::Cost::linear(1e-5 * (1 + i % 3));
    proc.comp = model::Cost::linear(1e-3 * (1 + i % 5));
    platform.processors.push_back(proc);
  }
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(2e-3);
  platform.processors.push_back(root);
  return platform;
}

std::string bench_socket_path() {
  static int counter = 0;
  return "/tmp/lbs_bench_service_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-request latency percentiles in milliseconds, appended to a
// record's extras so the regression gate can watch tails, not just
// aggregate throughput (a lost parallel path shows up in p99 first).
void append_percentiles(bench::BenchRecord& record,
                        const std::vector<double>& latencies_s) {
  if (latencies_s.empty()) return;
  record.extra.emplace_back("p50_ms", 1e3 * support::quantile(latencies_s, 0.50));
  record.extra.emplace_back("p95_ms", 1e3 * support::quantile(latencies_s, 0.95));
  record.extra.emplace_back("p99_ms", 1e3 * support::quantile(latencies_s, 0.99));
}

// Runs `total_requests` unique-key plan requests spread over `clients`
// concurrent connections; returns aggregate requests/second and appends
// each request's latency (seconds) to `latencies_s`. `key_epoch` offsets
// the item counts so each phase sees fresh keys (cache misses); keep it
// small — items scale the DP, so a large offset would change the
// per-solve workload between phases and corrupt the comparison.
double run_miss_phase(const std::string& socket_path, int clients,
                      int total_requests, long long key_epoch,
                      std::atomic<int>& failures,
                      std::vector<double>& latencies_s) {
  auto platform = bench_platform();
  std::atomic<int> next{0};
  std::mutex latency_mu;
  double start = wall_seconds();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      service::Client client(socket_path);
      std::vector<double> mine;
      for (int i = next.fetch_add(1); i < total_requests;
           i = next.fetch_add(1)) {
        // Unique items per request => unique PlanKey => guaranteed miss.
        long long items = kItemsBase + key_epoch + i;
        double sent = wall_seconds();
        auto response = client.plan(platform, items, core::Algorithm::OptimizedDp);
        mine.push_back(wall_seconds() - sent);
        if (response.status != service::PlanStatus::Ok) failures.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(latency_mu);
      latencies_s.insert(latencies_s.end(), mine.begin(), mine.end());
    });
  }
  for (auto& thread : threads) thread.join();
  double elapsed = wall_seconds() - start;
  return static_cast<double>(total_requests) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::take_json_flag(argc, argv);
  bench::JsonReport report("service_throughput");
  const int cores = support::default_parallelism();

  bench::print_header(
      "Planning service (lbsd): throughput, coalescing, cache serving");
  std::cout << "DP workers: " << cores << " | platform: p=" << kProcessors
            << " linear | " << kSolvesPerPhase << " unique solves per phase\n";

  // ---- Phase 1: cache-miss scaling, 1 vs 16 clients -------------------
  obs::Tracer tracer;
  service::ServerOptions options;
  options.socket_path = bench_socket_path();
  options.tracer = &tracer;
  // The scaling phase measures solve throughput, not admission policy:
  // at most 16 requests are ever outstanding, so none is Rejected and the
  // bare Client::plan needs no retry loop.
  options.max_queue = 1024;
  service::Server server(options);
  server.start();

  std::atomic<int> failures{0};
  std::vector<double> latencies_1;
  std::vector<double> latencies_16;
  double rps_1 = run_miss_phase(options.socket_path, 1, kSolvesPerPhase,
                                /*key_epoch=*/0, failures, latencies_1);
  double rps_16 = run_miss_phase(options.socket_path, kClientsWide,
                                 kSolvesPerPhase, /*key_epoch=*/kSolvesPerPhase,
                                 failures, latencies_16);
  double scaling = rps_16 / rps_1;

  support::Table scale_table(
      {"clients", "unique solves", "throughput (req/s)", "speedup"});
  scale_table.add_row({"1", std::to_string(kSolvesPerPhase),
                       support::format_double(rps_1, 1), "1.00"});
  scale_table.add_row({"16", std::to_string(kSolvesPerPhase),
                       support::format_double(rps_16, 1),
                       support::format_double(scaling, 2)});
  std::cout << '\n';
  scale_table.print(std::cout);

  {
    bench::BenchRecord record;
    record.name = "miss_1_client";
    record.n = kItemsBase;
    record.p = 1;
    record.wall_s = kSolvesPerPhase / rps_1;
    record.items_per_s = rps_1;
    append_percentiles(record, latencies_1);
    report.add(record);
    record.extra.clear();
    record.name = "miss_16_clients";
    record.p = kClientsWide;
    record.wall_s = kSolvesPerPhase / rps_16;
    record.items_per_s = rps_16;
    record.extra = {{"scaling_x", scaling}};
    append_percentiles(record, latencies_16);
    report.add(record);
  }

  // ---- Phase 2: coalescing proof --------------------------------------
  // A dedicated server with solve_delay_ms keeps each round's solve open
  // until all 16 clients have attached, making "exactly one dp.solve per
  // round" deterministic instead of a race against client arrival.
  auto platform = bench_platform();
  std::atomic<int> coalesce_failures{0};
  long long solves = 0;
  {
    obs::Tracer coalesce_tracer;
    service::ServerOptions coalesce_options;
    coalesce_options.socket_path = bench_socket_path();
    coalesce_options.tracer = &coalesce_tracer;
    coalesce_options.max_queue = 1024;
    coalesce_options.solve_delay_ms = 200;
    service::Server coalesce_server(coalesce_options);
    coalesce_server.start();
    for (int round = 0; round < kCoalesceRounds; ++round) {
      long long items = kItemsBase + 2 * kSolvesPerPhase + round;  // fresh key
      std::vector<std::thread> threads;
      for (int c = 0; c < kClientsWide; ++c) {
        threads.emplace_back([&, items] {
          service::Client client(coalesce_options.socket_path);
          auto response = client.plan(platform, items, core::Algorithm::OptimizedDp);
          if (response.status != service::PlanStatus::Ok) {
            coalesce_failures.fetch_add(1);
          }
        });
      }
      for (auto& thread : threads) thread.join();
    }
    coalesce_server.stop();
    auto log = coalesce_tracer.collect();
    solves = static_cast<long long>(log.of_type(obs::EventType::DpSolve).size());
  }
  long long coalesce_requests = static_cast<long long>(kCoalesceRounds) * kClientsWide;
  std::cout << "\ncoalescing: " << coalesce_requests << " identical requests ("
            << kClientsWide << " clients x " << kCoalesceRounds
            << " rounds) -> " << solves << " dp.solve spans\n";

  {
    bench::BenchRecord record;
    record.name = "coalesce_proof";
    record.n = coalesce_requests;
    record.p = kClientsWide;
    record.wall_s = 0.0;
    record.items_per_s = 0.0;
    record.extra = {{"dp_solves", static_cast<double>(solves)},
                    {"rounds", static_cast<double>(kCoalesceRounds)}};
    report.add(record);
  }

  // ---- Phase 3: warm-cache serving ------------------------------------
  {
    std::vector<double> hit_latencies;
    std::mutex latency_mu;
    double start = wall_seconds();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClientsWide; ++c) {
      threads.emplace_back([&] {
        service::Client client(options.socket_path);
        std::vector<double> mine;
        for (int i = 0; i < kHitRequestsPerClient; ++i) {
          // Replay phase 1's warmed keys: all hits.
          long long items = kItemsBase + (i % kSolvesPerPhase);
          double sent = wall_seconds();
          auto response = client.plan(platform, items, core::Algorithm::OptimizedDp);
          mine.push_back(wall_seconds() - sent);
          if (response.status != service::PlanStatus::Ok) failures.fetch_add(1);
        }
        std::lock_guard<std::mutex> lock(latency_mu);
        hit_latencies.insert(hit_latencies.end(), mine.begin(), mine.end());
      });
    }
    for (auto& thread : threads) thread.join();
    double elapsed = wall_seconds() - start;
    double rps_hit =
        static_cast<double>(kClientsWide) * kHitRequestsPerClient / elapsed;
    std::cout << "warm-cache serving: "
              << support::format_double(rps_hit, 0) << " req/s ("
              << kClientsWide << " clients, "
              << kClientsWide * kHitRequestsPerClient << " requests)\n";

    bench::BenchRecord record;
    record.name = "cache_hit_serving";
    record.n = kClientsWide * kHitRequestsPerClient;
    record.p = kClientsWide;
    record.wall_s = elapsed;
    record.items_per_s = rps_hit;
    record.extra = {{"hit_ratio_vs_miss", rps_hit / rps_16}};
    append_percentiles(record, hit_latencies);
    report.add(record);
  }

  auto counters = server.counters();
  std::cout << "server counters: requests=" << counters.requests
            << " solved=" << counters.solved
            << " coalesced=" << counters.coalesced
            << " cache_hits=" << counters.cache_hits
            << " rejected=" << counters.rejected << "\n";
  server.stop();

  // ---- Shape gates ----------------------------------------------------
  // The acceptance scaling target assumes a multi-core runner; scale it
  // to the hardware so the gate measures the service, not the container.
  double required_scaling =
      std::min(4.0, std::max(0.75, 0.45 * static_cast<double>(cores)));
  std::vector<bench::Comparison> comparisons;
  comparisons.push_back(
      {"16-vs-1 client throughput (cache miss)",
       ">= " + support::format_double(required_scaling, 2) + "x (" +
           std::to_string(cores) + " cores)",
       support::format_double(scaling, 2) + "x", scaling >= required_scaling});
  comparisons.push_back({"dp.solve per coalesced round (16 identical reqs)",
                         "1", std::to_string(solves) + "/" +
                             std::to_string(kCoalesceRounds) + " rounds",
                         solves == kCoalesceRounds});
  comparisons.push_back({"failed requests", "0",
                         std::to_string(failures.load() + coalesce_failures.load()),
                         failures.load() + coalesce_failures.load() == 0});
  int rc = bench::print_comparisons(comparisons);
  if (!report.write(json_path)) rc = 1;
  return rc;
}
