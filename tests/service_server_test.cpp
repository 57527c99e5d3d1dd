#include "service/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
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
#include "service/socket.hpp"
#include "support/checksum.hpp"

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

bool built_with_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
#endif
}

// Whether a multi-terabyte allocation would abort or overcommit instead of
// throwing std::bad_alloc: ASan and TSan allocators abort on oversized
// requests by default, and vm.overcommit_memory = 1 hands the memory out
// and lets the zero-fill run into the OOM killer.
bool huge_allocations_do_not_throw() {
  if (built_with_sanitizer()) return true;
  std::ifstream overcommit("/proc/sys/vm/overcommit_memory");
  int mode = 0;
  return overcommit >> mode && mode == 1;
}

long long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

// A finished connection's thread is joined while the server serves, not
// at stop(): each unjoined thread keeps its stack mapping (8 MB here), so
// a daemon whose clients re-dial would grow without bound.
TEST(ServiceServer, FinishedConnectionsReleaseTheirThreadsWhileServing) {
  if (built_with_sanitizer()) {
    GTEST_SKIP() << "sanitizer runtimes map shadow memory per thread";
  }
  ServerOptions options;
  options.socket_path = test_socket_path();
  Server server(options);
  server.start();
  {
    Client warm(options.socket_path);  // first-use mappings before measuring
    ASSERT_TRUE(warm.ping());
  }
  const long long before_kb = vm_size_kb();
  ASSERT_GT(before_kb, 0);
  constexpr int kCycles = 300;
  for (int i = 0; i < kCycles; ++i) {
    Client client(options.socket_path);
    ASSERT_TRUE(client.ping());
  }
  const long long growth_mb = (vm_size_kb() - before_kb) / 1024;
  EXPECT_LT(growth_mb, 256) << kCycles << " finished connections kept their threads";
  server.stop();
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


// --- Transport: one frame per direction, shutdown(2) ends a connection ---

// A frame as the transport lays it out (u32 length | u32 crc32 |
// payload), built by hand so a test can also send one whose length word
// lies.
std::vector<std::uint8_t> raw_frame(const std::vector<std::uint8_t>& payload,
                                    std::uint32_t length) {
  std::vector<std::uint8_t> frame;
  auto put_le32 = [&frame](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      frame.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  };
  put_le32(length);
  put_le32(support::crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::vector<std::uint8_t> raw_frame(const std::vector<std::uint8_t>& payload) {
  return raw_frame(payload, static_cast<std::uint32_t>(payload.size()));
}

// All-linear costs (the closed-form route: a cheap solve) over 65
// processors, so replies fill a socket buffer fast; `variant` makes the
// key distinct.
model::Platform linear_platform(int variant) {
  model::Platform platform;
  for (int k = 0; k < 64; ++k) {
    model::Processor worker;
    worker.label = "worker";
    worker.comm = model::Cost::linear(1e-4 * (k + 1));
    worker.comp = model::Cost::linear(1e-3 * (1.0 + 0.01 * k + 1e-6 * variant));
    platform.processors.push_back(worker);
  }
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(1e-3);
  platform.processors.push_back(root);
  return platform;
}

std::vector<std::uint8_t> linear_request_frame(std::uint64_t id, int variant) {
  PlanRequest request;
  request.id = id;
  request.items = 100000;
  request.platform = linear_platform(variant);
  return raw_frame(encode_plan_request(request));
}

int raw_connect(const std::string& socket_path) {
  int fd = connect_endpoint(Endpoint::unix_path(socket_path));
  EXPECT_GE(fd, 0);
  return fd;
}

// True once the peer has ended the connection (shutdown or close), seen
// without reading a byte: reading would make room for a blocked writer.
bool peer_hung_up_within(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLRDHUP, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1 && (pfd.revents & (POLLRDHUP | POLLHUP)) != 0;
}

int threads_in_process() {
  int count = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++count;
  }
  return count;
}

// A reply the dispatcher cannot write within reply_timeout_ms ends the
// connection by shutdown(2): the connection thread reads EOF and closes
// its own fd, so nothing reads a closed fd or counts a protocol error.
TEST(ServiceTransport, DispatcherReplyPastDeadlineIsNoProtocolError) {
  obs::Metrics metrics;
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.reply_timeout_ms = 50;
  options.max_queue = 100000;
  options.metrics = &metrics;
  Server server(options);
  server.start();

  // Distinct keys, so the dispatcher writes every reply; the test never
  // reads, so the replies fill the socket and one misses its deadline.
  const int fd = raw_connect(options.socket_path);
  int sent = 0;
  for (; sent < 3000; ++sent) {
    std::vector<std::uint8_t> frame = linear_request_frame(sent + 1, sent);
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      break;  // the server already ended the connection
    }
  }
  ASSERT_TRUE(peer_hung_up_within(fd, 10000))
      << "no reply missed its deadline after " << sent << " requests";
  // Room for a thread that reads a closed fd to count it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.stop();
  close_fd(fd);

  EXPECT_GT(server.counters().solved, 0u);
  EXPECT_EQ(server.counters().errors, 0u);
  EXPECT_EQ(metrics.counter("service.protocol_errors").value(), 0u);
}

// An inline cache-hit reply that misses reply_timeout_ms ends its
// connection thread at once, not at stop().
TEST(ServiceTransport, InlineReplyPastDeadlineEndsItsConnectionThread) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.reply_timeout_ms = 50;
  Server server(options);
  server.start();
  Client warm(options.socket_path);
  ASSERT_EQ(warm.plan(linear_platform(0), 100000).status, PlanStatus::Ok);

  const int before = threads_in_process();
  const int fd = raw_connect(options.socket_path);
  // Hits only, answered by the connection thread. Write until the server
  // stops reading (blocked on a reply nobody reads) or hangs up.
  for (std::uint64_t id = 1; id < 100000; ++id) {
    std::vector<std::uint8_t> frame = linear_request_frame(id, 0);
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT) >= 0) {
      continue;
    }
    if (errno != EAGAIN) break;
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 200) == 0) break;
  }

  int after = threads_in_process();
  for (int i = 0; i < 100 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = threads_in_process();
  }
  EXPECT_EQ(after, before) << "the connection thread outlived its connection";
  EXPECT_TRUE(peer_hung_up_within(fd, 0));
  close_fd(fd);
  warm.close();
  server.stop();
}

// A length word that promises more bytes than follow costs the server
// one reply_timeout_ms, then the connection; it never wedges the reader.
TEST(ServiceTransport, StalledRequestFrameEndsTheConnection) {
  ServerOptions options;
  options.socket_path = test_socket_path();
  options.reply_timeout_ms = 200;
  Server server(options);
  server.start();

  const int fd = raw_connect(options.socket_path);
  std::vector<std::uint8_t> frame =
      raw_frame(std::vector<std::uint8_t>(1000, 7), 50000);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(peer_hung_up_within(fd, 3000))
      << "the server still waits for the rest of the frame";
  close_fd(fd);

  Client client(options.socket_path);
  EXPECT_EQ(client.plan(seeded_platform(1), 1000).status, PlanStatus::Ok);
  client.close();
  server.stop();
}

// A stand-in server: a listener whose one connection the test drives by
// hand.
struct RawListener {
  explicit RawListener(std::string path) : endpoint(Endpoint::unix_path(std::move(path))) {
    fd = listen_endpoint(endpoint);
  }
  ~RawListener() {
    close_fd(peer);
    close_fd(fd);
    ::unlink(endpoint.path.c_str());
  }
  RawListener(const RawListener&) = delete;
  RawListener& operator=(const RawListener&) = delete;
  int accept_peer() {
    peer = ::accept(fd, nullptr, nullptr);
    return peer;
  }
  Endpoint endpoint;
  int fd = -1;
  int peer = -1;
};

// A send that misses request_timeout_ms part-way through a frame leaves
// the stream mid-frame: the call answers Timeout and the connection ends,
// so no later request follows half a frame.
TEST(ServiceTransport, ClientSendPastDeadlineEndsTheConnection) {
  RawListener listener(test_socket_path());  // never reads
  ClientOptions client_options;
  client_options.endpoint = listener.endpoint;
  client_options.request_timeout_ms = 100;
  Client client(client_options);

  // About 1 MB of tabulated samples: far more than the socket buffers.
  std::vector<std::pair<long long, double>> samples;
  for (long long x = 1; x <= 64000; ++x) samples.emplace_back(x, 1e-3 * static_cast<double>(x));
  model::Platform big = seeded_platform(1);
  big.processors.front().comp = model::Cost::tabulated(samples);

  PlanResponse first = client.plan(big, 1000);
  EXPECT_EQ(first.status, PlanStatus::Timeout) << first.message;
  EXPECT_FALSE(client.connected());

  ASSERT_GE(listener.accept_peer(), 0);
  int queued = -1;
  ASSERT_EQ(::ioctl(listener.peer, FIONREAD, &queued), 0);
  PlanResponse next = client.plan(seeded_platform(2), 1000);
  EXPECT_EQ(next.status, PlanStatus::Disconnected);
  int queued_after = -1;
  ASSERT_EQ(::ioctl(listener.peer, FIONREAD, &queued_after), 0);
  EXPECT_EQ(queued_after, queued) << "the next request wrote after a half frame";
  client.close();
}

// close() shuts the socket down without the write lock, so a send with no
// deadline to a peer that never reads fails at once and answers
// Disconnected instead of holding close() until the peer reads.
TEST(ServiceTransport, CloseDoesNotWaitBehindAStuckSend) {
  RawListener listener(test_socket_path());  // never reads
  ClientOptions client_options;
  client_options.endpoint = listener.endpoint;
  Client client(client_options);
  ASSERT_GE(listener.accept_peer(), 0);

  // About 1 MB of tabulated samples: far more than the socket buffers.
  std::vector<std::pair<long long, double>> samples;
  for (long long x = 1; x <= 64000; ++x) samples.emplace_back(x, 1e-3 * static_cast<double>(x));
  model::Platform big = seeded_platform(1);
  big.processors.front().comp = model::Cost::tabulated(samples);
  auto sender = std::async(std::launch::async,
                           [&] { return client.plan_async(big, 1000).get(); });

  // The send is stuck once the peer's queue stops growing.
  int queued = -1;
  for (int i = 0; i < 300; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int now = -1;
    ASSERT_EQ(::ioctl(listener.peer, FIONREAD, &now), 0);
    if (now > 0 && now == queued) break;
    queued = now;
  }
  auto closer = std::async(std::launch::async, [&] { client.close(); });
  const bool closed_promptly =
      closer.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  // End the peer either way, so a close() stuck behind the send returns.
  close_fd(listener.peer);
  listener.peer = -1;
  closer.wait();
  EXPECT_TRUE(closed_promptly) << "close() waited behind a send with no deadline";
  ASSERT_EQ(sender.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(sender.get().status, PlanStatus::Disconnected);
  EXPECT_FALSE(client.connected());
}

// The client's reader bounds a reply frame by request_timeout_ms once its
// first byte is in, so a lying length word ends the connection.
TEST(ServiceTransport, StalledReplyFrameEndsTheClientConnection) {
  RawListener listener(test_socket_path());
  ClientOptions client_options;
  client_options.endpoint = listener.endpoint;
  client_options.request_timeout_ms = 200;
  Client client(client_options);
  auto reply = client.plan_async(seeded_platform(1), 1000);

  ASSERT_GE(listener.accept_peer(), 0);
  std::vector<std::uint8_t> frame =
      raw_frame(std::vector<std::uint8_t>(1000, 7), 50000);
  ASSERT_EQ(::send(listener.peer, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  ASSERT_EQ(reply.wait_for(std::chrono::seconds(3)), std::future_status::ready)
      << "the reader still waits for the rest of the frame";
  EXPECT_EQ(reply.get().status, PlanStatus::Disconnected);
  EXPECT_FALSE(client.connected());
  client.close();
}

}  // namespace
}  // namespace lbs::service
