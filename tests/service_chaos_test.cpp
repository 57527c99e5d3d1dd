// Chaos harness: the service's robustness claim — every request ends in
// a correct plan or a typed error, never a hang, never a wrong plan —
// exercised against a hostile transport (service/chaos.hpp) and a daemon
// that keeps getting killed and restarted.
//
// The kill-restart soak scales with LBS_CHAOS_ITERS (nightly CI raises
// it; the default keeps the suite fast enough for every push).
#include "service/chaos.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "model/testbed.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/fleet.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace lbs::service {
namespace {

std::string test_path(const char* stem) {
  static int counter = 0;
  return "/tmp/lbs_chaos_test_" + std::to_string(::getpid()) + "_" +
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
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(0.2);
  platform.processors.push_back(root);
  return platform;
}

// Installs the process-global injector for a scope; clears it on exit so
// the next test (and this injector's destructor) are safe.
struct InjectorScope {
  explicit InjectorScope(FaultInjector& injector) { set_fault_injector(&injector); }
  ~InjectorScope() { set_fault_injector(nullptr); }
  InjectorScope(const InjectorScope&) = delete;
  InjectorScope& operator=(const InjectorScope&) = delete;
};

// "Correct plan or typed error": Ok responses must match the in-process
// planner bit-for-bit; anything else must be a typed transport status.
void expect_correct_or_typed(const PlanResponse& response,
                             const model::Platform& platform, long long items) {
  if (response.status == PlanStatus::Ok) {
    auto direct = core::plan_scatter(platform, items);
    EXPECT_EQ(response.counts, direct.distribution.counts)
        << "items=" << items << " — a WRONG plan slipped through";
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
  if (env == nullptr) return 3;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 3;
}

TEST(BackoffJitter, StaysWithinJitterBandAndCap) {
  support::Rng rng(42);
  // attempt 0, hint 50: band is [25, 75].
  for (int i = 0; i < 200; ++i) {
    std::uint32_t wait = backoff_with_jitter(50, 0, 1, 2000, rng);
    EXPECT_GE(wait, 25u);
    EXPECT_LE(wait, 75u);
  }
  // Deep attempts saturate at the cap, never overflow to 0.
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::uint32_t wait = backoff_with_jitter(50, attempt, 1, 2000, rng);
    EXPECT_GE(wait, 1u);
    EXPECT_LE(wait, 2000u);
  }
}

TEST(BackoffJitter, GrowsExponentiallyFromTheHint) {
  support::Rng rng(7);
  // attempt 2 quadruples the hint: band [2*h, 6*h] before the cap.
  for (int i = 0; i < 200; ++i) {
    std::uint32_t wait = backoff_with_jitter(10, 2, 1, 100000, rng);
    EXPECT_GE(wait, 20u);
    EXPECT_LE(wait, 60u);
  }
}

TEST(BackoffJitter, ZeroHintFallsBackToBaseAndNeverReturnsZero) {
  support::Rng rng(9);
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_GE(backoff_with_jitter(0, attempt, 1, 2000, rng), 1u);
  }
}

TEST(BackoffJitter, ActuallyJitters) {
  // The satellite bug this kills: every rejected client sleeping exactly
  // retry_after_ms and returning in lockstep. Distinct values must occur.
  support::Rng rng(1234);
  std::uint32_t first = backoff_with_jitter(1000, 0, 1, 5000, rng);
  bool varied = false;
  for (int i = 0; i < 64 && !varied; ++i) {
    varied = backoff_with_jitter(1000, 0, 1, 5000, rng) != first;
  }
  EXPECT_TRUE(varied);
}

TEST(BackoffJitter, DeterministicPerSeed) {
  support::Rng a(77);
  support::Rng b(77);
  for (int attempt = 0; attempt < 16; ++attempt) {
    EXPECT_EQ(backoff_with_jitter(50, attempt, 1, 2000, a),
              backoff_with_jitter(50, attempt, 1, 2000, b));
  }
}

TEST(FaultInjectorUnit, CertainFaultsFireAndAreCounted) {
  ChaosOptions options;
  options.seed = 5;
  options.short_read = 1.0;
  options.partial_write = 1.0;
  options.corrupt_byte = 1.0;
  FaultInjector injector(options);

  auto write = injector.on_write(1024);
  EXPECT_GE(write.max_bytes, 1u);
  EXPECT_LE(write.max_bytes, 3u);
  EXPECT_TRUE(write.corrupt);
  EXPECT_LT(write.corrupt_offset, write.max_bytes);
  EXPECT_NE(write.corrupt_mask, 0);

  auto read = injector.on_read(1024);
  EXPECT_GE(read.max_bytes, 1u);
  EXPECT_LE(read.max_bytes, 3u);

  auto counters = injector.counters();
  EXPECT_EQ(counters.partial_writes, 1u);
  EXPECT_EQ(counters.corruptions, 1u);
  EXPECT_EQ(counters.short_reads, 1u);
}

TEST(FaultInjectorUnit, DecisionsReplayFromTheSeed) {
  ChaosOptions options;
  options.seed = 99;
  options.short_read = 0.5;
  options.partial_write = 0.5;
  options.corrupt_byte = 0.25;
  options.disconnect = 0.1;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 256; ++i) {
    auto wa = a.on_write(512);
    auto wb = b.on_write(512);
    EXPECT_EQ(wa.max_bytes, wb.max_bytes);
    EXPECT_EQ(wa.corrupt, wb.corrupt);
    EXPECT_EQ(wa.corrupt_mask, wb.corrupt_mask);
    EXPECT_EQ(wa.disconnect, wb.disconnect);
    auto ra = a.on_read(512);
    auto rb = b.on_read(512);
    EXPECT_EQ(ra.max_bytes, rb.max_bytes);
    EXPECT_EQ(ra.disconnect, rb.disconnect);
  }
}

TEST(FrameIntegrity, PayloadCorruptionFailsTheChecksumDeterministically) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  // Hand-build a valid frame (u32 length | u32 crc | payload), then flip
  // one payload byte: the receiver must throw, never deliver the bytes.
  std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<std::uint8_t> frame;
  auto put_le32 = [&frame](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      frame.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  };
  put_le32(static_cast<std::uint32_t>(payload.size()));
  put_le32(support::crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  frame[8 + 4] ^= 0x20;  // corrupt one payload byte in "transit"
  ASSERT_EQ(::write(fds[0], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));

  std::atomic<bool> stop{false};
  std::vector<std::uint8_t> received;
  EXPECT_THROW(
      (void)recv_frame_within(fds[1], received, stop, deadline_after_ms(2000)),
      lbs::Error);
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(FrameIntegrity, InjectedCorruptionNeverDeliversWrongBytes) {
  // The injector flips one byte per write chunk; where it lands decides
  // the symptom. Payload flip → CRC mismatch (throws). Length-word flip →
  // mis-framed stream (throws) or a longer frame that never completes
  // (typed TimedOut). All acceptable; delivering altered bytes is not.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    ChaosOptions options;
    options.seed = seed;
    options.corrupt_byte = 1.0;
    FaultInjector injector(options);
    std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    {
      InjectorScope scope(injector);
      ASSERT_EQ(send_frame_within(fds[0], payload, no_deadline()), IoStatus::Ok);
    }
    EXPECT_GE(injector.counters().corruptions, 1u);

    std::atomic<bool> stop{false};
    std::vector<std::uint8_t> received;
    try {
      IoStatus status =
          recv_frame_within(fds[1], received, stop, deadline_after_ms(200));
      EXPECT_NE(status, IoStatus::Ok)
          << "seed " << seed << ": corrupted frame delivered as Ok";
    } catch (const lbs::Error&) {
      // CRC mismatch or mis-framed length: the typed rejection we want.
    }
    close_fd(fds[0]);
    close_fd(fds[1]);
  }
}

TEST(FrameIntegrity, ShortReadsAndPartialWritesAreLossless) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  ChaosOptions options;
  options.seed = 11;
  options.short_read = 0.7;
  options.partial_write = 0.7;
  FaultInjector injector(options);
  InjectorScope scope(injector);

  support::Rng rng(21);
  std::atomic<bool> stop{false};
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng.uniform_int(1, 600)));
    for (auto& byte : payload) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    std::thread sender([&] {
      EXPECT_EQ(send_frame_within(fds[0], payload, no_deadline()), IoStatus::Ok);
    });
    std::vector<std::uint8_t> received;
    EXPECT_EQ(recv_frame_within(fds[1], received, stop, deadline_after_ms(5000)),
              IoStatus::Ok);
    sender.join();
    EXPECT_EQ(received, payload);  // sliced, but byte-identical
  }
  auto counters = injector.counters();
  EXPECT_GT(counters.short_reads, 0u);
  EXPECT_GT(counters.partial_writes, 0u);
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(ChaosService, SlicedTransportStillServesBitExactPlans) {
  ServerOptions server_options;
  server_options.socket_path = test_path("sliced.sock");
  Server server(server_options);
  server.start();

  ChaosOptions chaos;
  chaos.seed = 17;
  chaos.short_read = 0.3;
  chaos.partial_write = 0.3;
  FaultInjector injector(chaos);
  {
    InjectorScope scope(injector);
    Client client(server_options.socket_path);
    for (int i = 0; i < 12; ++i) {
      auto platform = seeded_platform(i);
      PlanResponse response = client.plan(platform, 2000 + i);
      ASSERT_EQ(response.status, PlanStatus::Ok) << response.message;
      auto direct = core::plan_scatter(platform, 2000 + i);
      EXPECT_EQ(response.counts, direct.distribution.counts);
    }
    client.close();
    server.stop();
  }
  auto counters = injector.counters();
  EXPECT_GT(counters.short_reads + counters.partial_writes, 0u);
}

TEST(ChaosService, HostileTransportNeverHangsAndNeverLies) {
  ServerOptions server_options;
  server_options.socket_path = test_path("hostile.sock");
  server_options.reply_timeout_ms = 500;
  Server server(server_options);
  server.start();

  ChaosOptions chaos;
  chaos.seed = 29;
  chaos.short_read = 0.2;
  chaos.partial_write = 0.2;
  chaos.corrupt_byte = 0.04;
  chaos.disconnect = 0.02;
  chaos.stall = 0.05;
  chaos.stall_ms = 5;
  FaultInjector injector(chaos);
  InjectorScope scope(injector);

  // One attempt per plan; a connection the chaos killed is re-dialed on
  // the next one.
  FleetOptions client_options;
  client_options.replicas = {Endpoint::unix_path(server_options.socket_path)};
  client_options.request_timeout_ms = 3000;
  client_options.retries_per_replica = 0;
  client_options.backoff_cap_ms = 20;
  client_options.breaker_threshold = 0;  // keep probing; breaker has its own test
  client_options.jitter_seed = 31;
  FleetClient client(client_options);

  int ok = 0;
  int typed_failures = 0;
  for (int i = 0; i < 40; ++i) {
    auto platform = seeded_platform(i % 8);
    PlanResponse response = client.plan(platform, 1500 + (i % 8));
    expect_correct_or_typed(response, platform, 1500 + (i % 8));
    if (response.status == PlanStatus::Ok) {
      ++ok;
    } else {
      ++typed_failures;
    }
  }
  // The run must have exercised both worlds: some requests survived the
  // chaos, and the injector demonstrably fired.
  EXPECT_GT(ok, 0);
  auto counters = injector.counters();
  EXPECT_GT(counters.corruptions + counters.disconnects, 0u)
      << "chaos run injected nothing — seed or probabilities are off";
  client.close();
  server.stop();
}

TEST(ClientDeadline, SlowSolveSurfacesTypedTimeout) {
  ServerOptions server_options;
  server_options.socket_path = test_path("deadline.sock");
  server_options.solve_delay_ms = 400;
  Server server(server_options);
  server.start();

  ClientOptions client_options;
  client_options.socket_path = server_options.socket_path;
  client_options.request_timeout_ms = 50;
  Client client(client_options);

  auto platform = seeded_platform(50);
  PlanResponse response = client.plan(platform, 7000);
  EXPECT_EQ(response.status, PlanStatus::Timeout);
  EXPECT_FALSE(response.message.empty());

  // The late reply is dropped as an unmatched id; the connection stays
  // healthy and a patient request succeeds.
  PlanResponse patient = client.plan(platform, 7000, core::Algorithm::Auto,
                                     std::uint32_t{5000});
  EXPECT_EQ(patient.status, PlanStatus::Ok) << patient.message;
  client.close();
  server.stop();
}

// A one-replica FleetClient whose breaker trips after two transport
// failures; one attempt per plan so every plan is one breaker outcome.
FleetOptions breaker_options(const std::string& socket, std::uint32_t cooldown_ms,
                             obs::Metrics* metrics) {
  FleetOptions options;
  options.replicas = {Endpoint::unix_path(socket)};
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = cooldown_ms;
  options.retries_per_replica = 0;
  options.backoff_cap_ms = 5;
  options.metrics = metrics;
  return options;
}

TEST(CircuitBreaker, OpensAfterConsecutiveTransportFailures) {
  std::string socket = test_path("breaker.sock");
  ServerOptions server_options;
  server_options.socket_path = socket;
  Server server(server_options);
  server.start();

  obs::Metrics metrics;
  FleetClient client(breaker_options(socket, 60000, &metrics));  // stays open
  ASSERT_TRUE(client.ping(0));  // connected; control calls never feed the breaker
  server.stop();  // daemon gone; the socket file is unlinked

  auto platform = seeded_platform(60);
  EXPECT_EQ(metrics.counter("service.fleet.breaker.opens").value(), 0u);
  for (int i = 0; i < 2; ++i) {
    PlanResponse response = client.plan(platform, 900);
    EXPECT_EQ(response.status, PlanStatus::Disconnected);
  }
  EXPECT_EQ(metrics.counter("service.fleet.breaker.opens").value(), 1u);

  // Open breaker: fail fast, typed.
  PlanResponse fast = client.plan(platform, 900);
  EXPECT_EQ(fast.status, PlanStatus::BreakerOpen);
  EXPECT_EQ(metrics.counter("service.fleet.breaker.fast_fails").value(), 1u);
  client.close();
}

TEST(CircuitBreaker, OpenBreakerFallsBackToInProcessPlanner) {
  std::string socket = test_path("fallback.sock");
  ServerOptions server_options;
  server_options.socket_path = socket;
  Server server(server_options);
  server.start();

  obs::Metrics metrics;
  FleetOptions client_options = breaker_options(socket, 60000, &metrics);
  client_options.local_fallback = true;
  FleetClient client(client_options);
  ASSERT_TRUE(client.ping(0));
  server.stop();

  auto platform = seeded_platform(61);
  for (int i = 0; i < 2; ++i) {
    (void)client.plan(platform, 1100);
  }
  ASSERT_EQ(metrics.counter("service.fleet.breaker.opens").value(), 1u);

  // Differential check: the degraded answer IS the planner's answer.
  PlanResponse fallback = client.plan(platform, 1100);
  EXPECT_EQ(metrics.counter("service.fleet.breaker.fast_fails").value(), 1u);
  ASSERT_EQ(fallback.status, PlanStatus::Ok);
  EXPECT_TRUE(fallback.local_fallback);
  auto direct = core::plan_scatter(platform, 1100);
  EXPECT_EQ(fallback.counts, direct.distribution.counts);
  EXPECT_DOUBLE_EQ(fallback.predicted_makespan, direct.predicted_makespan);
  EXPECT_GE(metrics.counter("service.fleet.fallbacks").value(), 1u);
  client.close();
}

TEST(CircuitBreaker, HalfOpenTrialRecoversWhenTheServerReturns) {
  std::string socket = test_path("halfopen.sock");
  auto platform = seeded_platform(62);

  obs::Metrics metrics;
  ServerOptions server_options;
  server_options.socket_path = socket;
  {
    Server first(server_options);
    first.start();
    FleetClient client(breaker_options(socket, 50, &metrics));
    ASSERT_TRUE(client.ping(0));
    first.stop();

    for (int i = 0; i < 2; ++i) {
      (void)client.plan(platform, 1300);
    }
    ASSERT_EQ(metrics.counter("service.fleet.breaker.opens").value(), 1u);

    // Daemon comes back under the same path; after the cooldown the
    // half-open trial re-dials and closes the breaker.
    Server second(server_options);
    second.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    PlanResponse recovered = client.plan(platform, 1300);
    EXPECT_EQ(recovered.status, PlanStatus::Ok) << recovered.message;
    EXPECT_FALSE(recovered.local_fallback);
    auto direct = core::plan_scatter(platform, 1300);
    EXPECT_EQ(recovered.counts, direct.distribution.counts);
    // Closed again: the next plan goes straight through, no fast fail.
    EXPECT_EQ(client.plan(platform, 1300).status, PlanStatus::Ok);
    EXPECT_EQ(metrics.counter("service.fleet.breaker.fast_fails").value(), 0u);
    EXPECT_EQ(metrics.counter("service.fleet.reconnects").value(), 1u);
    client.close();
    second.stop();
  }
}

TEST(CircuitBreaker, RefusedDialsOpenItAndFailFastWithoutDialing) {
  // An endpoint that never listened: every dial is refused. Each refused
  // dial is a transport failure, so the third plan fails fast instead of
  // dialing again.
  obs::Metrics metrics;
  FleetClient client(breaker_options(test_path("never.sock"), 60000, &metrics));
  auto platform = seeded_platform(63);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(client.plan(platform, 700).status, PlanStatus::Disconnected);
  }
  EXPECT_EQ(client.plan(platform, 700).status, PlanStatus::BreakerOpen);
  EXPECT_EQ(metrics.counter("service.fleet.dial_failures").value(), 2u);
  EXPECT_EQ(client.counters().exhausted, 3u);
}

// The kill-restart soak: a daemon that dies mid-traffic and restarts
// warm (snapshot + warm-start on the same file) while a one-replica
// FleetClient hammers it. Every response, across every kill, must be a
// correct plan or a typed error; the suite finishing at all is the
// no-hangs assertion. LBS_CHAOS_ITERS scales the kill count (nightly).
TEST(ChaosSoak, KillRestartLoopNeverHangsOrLies) {
  const int iterations = soak_iterations();
  std::string socket = test_path("soak.sock");
  std::string snapshot = test_path("soak.snap");

  for (int iter = 0; iter < iterations; ++iter) {
    ServerOptions server_options;
    server_options.socket_path = socket;
    server_options.snapshot_path = snapshot;
    if (iter > 0) server_options.warm_start_path = snapshot;
    server_options.solve_delay_ms = 2;  // keep some solves in flight at kill
    Server server(server_options);
    server.start();

    FleetOptions client_options;
    client_options.replicas = {Endpoint::unix_path(socket)};
    client_options.request_timeout_ms = 4000;
    client_options.retries_per_replica = 2;
    client_options.backoff_cap_ms = 20;
    client_options.breaker_threshold = 3;
    client_options.breaker_cooldown_ms = 30;
    client_options.local_fallback = true;
    client_options.jitter_seed = static_cast<std::uint64_t>(iter) + 1;
    FleetClient client(client_options);

    // Kill the daemon mid-traffic.
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      server.stop();
    });

    int fallbacks = 0;
    for (int r = 0; r < 24; ++r) {
      auto platform = seeded_platform(r % 6);
      long long items = 1000 + (r % 6);
      PlanResponse response = client.plan(platform, items);
      expect_correct_or_typed(response, platform, items);
      if (response.local_fallback) ++fallbacks;
    }
    killer.join();
    client.close();
    server.stop();  // idempotent
    (void)fallbacks;

    // The kill wrote an on-drain snapshot; the next iteration warm-starts
    // from it. Verify it is readable (or absent only on iteration 0
    // failure paths, which write_snapshot would have thrown on).
    EXPECT_EQ(::access(snapshot.c_str(), F_OK), 0);
  }
  ::unlink(snapshot.c_str());
}

}  // namespace
}  // namespace lbs::service
