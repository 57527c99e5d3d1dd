// serve_hits and serve_churn: four caller threads, each with its own
// service::Client, in a closed loop against an in-process service::Server
// over a Unix socket. See README.md for why each exists.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/distribution.hpp"
#include "core/plan_cache.hpp"
#include "core/sharded_plan_cache.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace lbs;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;

struct Key {
  model::Platform platform;
  long long items = 0;
};

// Runs fn(t) on kClients threads and rethrows the first failure.
template <class Fn>
void on_clients(Fn fn) {
  std::mutex mu;
  std::exception_ptr failure;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (failure) std::rethrow_exception(failure);
}

// The server's totals at one instant; windows subtract two of these.
struct ServerTotals {
  double requests = 0, hits = 0, solved = 0, coalesced = 0, evictions = 0;
  obs::Histogram::Snapshot request, queue, batch;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::vector<Key> keys, std::vector<std::vector<std::uint32_t>> sequences,
                std::uint32_t fixed_keys, bool fill_until_evicting)
      : keys_(std::move(keys)),
        sequences_(std::move(sequences)),
        first_(keys_.size()),
        fixed_keys_(fixed_keys),
        fill_until_evicting_(fill_until_evicting) {}

  ~ServeWorkload() override {
    clients_.clear();
    if (server_) server_->stop();
  }

  [[nodiscard]] int threads() const override { return kClients; }
  [[nodiscard]] double tail_q() const override { return 0.99; }

  // Server::start, four connects, then warming: serve_hits requests every
  // working-set key once (each a real solve); serve_churn runs the request
  // stream from its start until the cache is full and evicting.
  void setup() override {
    start_service();
    if (!fill_until_evicting_) {
      on_clients([&](int t) {
        for (std::size_t id = static_cast<std::size_t>(t); id < keys_.size(); id += kClients) {
          if (!request(t, static_cast<std::uint32_t>(id)).has_value()) {
            throw CheckFailure("set-up request failed");
          }
        }
      });
      return;
    }
    std::atomic<bool> full{false};
    on_clients([&](int t) {
      const auto& sequence = sequences_[static_cast<std::size_t>(t)];
      for (std::size_t k = 0; k < sequence.size() && !full.load(); ++k) {
        if (!request(t, sequence[k]).has_value()) throw CheckFailure("set-up request failed");
        if (t == 0 && k % 64 == 63) {
          core::ShardedPlanCache& cache = server_->cache();
          if (cache.size() == cache.capacity() && cache.stats().evictions > 0) full = true;
        }
      }
    });
    if (!full) throw CheckFailure("set-up never filled the server's plan cache");
  }

  // The first fixed_keys_ keys, requested once each by client 0.
  void fixed_set(Values& values) override {
    double ratio = 0, cells = 0, dropped = 0, request_bytes = 0, response_bytes = 0;
    for (std::uint32_t id = 0; id < fixed_keys_; ++id) {
      std::optional<service::PlanResponse> reply = request(0, id);
      if (!reply) throw CheckFailure("fixed-set request failed");
      const Key& key = keys_[id];
      ratio += reply->predicted_makespan / uniform_makespan(key.platform, key.items);
      cells += static_cast<double>(reply->dp_cells_evaluated);
      dropped += static_cast<double>(std::count(reply->counts.begin(), reply->counts.end(), 0));
      request_bytes += static_cast<double>(service::encode_plan_request(to_request(key)).size());
      // The flags a reply carries do not change its size.
      response_bytes += static_cast<double>(service::encode_plan_response(*reply).size());
    }
    const double keys = fixed_keys_;
    values["makespan_vs_uniform"] = ratio / keys;
    values["core.dp_cells"] = cells / keys;
    values["core.dropped_procs"] = dropped / keys;
    values["service.request_bytes"] = request_bytes / keys;
    values["service.response_bytes"] = response_bytes / keys;
  }

  void prepare_trace() override { build_standalone_cache(); }

  OpResult op(int thread, std::uint64_t k, const OpTrace& trace) override {
    const auto& sequence = sequences_[static_cast<std::size_t>(thread)];
    const std::uint32_t id = sequence[k % sequence.size()];
    const Key& key = keys_[id];
    OpResult result;
    service::PlanResponse reply;
    {
      Span span(trace.lane, "service.client_plan", trace.op);
      const auto start = Clock::now();
      reply = clients_[static_cast<std::size_t>(thread)]->plan(key.platform, key.items);
      result.latency_s = std::chrono::duration<double>(Clock::now() - start).count();
    }
    if (reply.status != service::PlanStatus::Ok) return result;
    check(id, reply);
    result.ok = true;
    result.cache_hit = reply.cache_hit;
    if (trace.split) replay(thread, key, reply, trace);
    return result;
  }

  void begin_window() override { window_start_ = totals(); }
  void end_window() override {
    const ServerTotals end = totals();
    auto add = [](obs::Histogram::Snapshot& into, const obs::Histogram::Snapshot& to,
                  const obs::Histogram::Snapshot& from) {
      into.count += to.count - from.count;
      into.sum += to.sum - from.sum;
    };
    window_.requests += end.requests - window_start_.requests;
    window_.hits += end.hits - window_start_.hits;
    window_.solved += end.solved - window_start_.solved;
    window_.coalesced += end.coalesced - window_start_.coalesced;
    window_.evictions += end.evictions - window_start_.evictions;
    add(window_.request, end.request, window_start_.request);
    add(window_.queue, end.queue, window_start_.queue);
    add(window_.batch, end.batch, window_start_.batch);
  }

  void window_values(Values& values) const override {
    const double requests = std::max(window_.requests, 1.0);
    values["service.hit_ratio"] = window_.hits / requests;
    values["service.solves_per_kreq"] = 1000.0 * window_.solved / requests;
    values["service.coalesced_per_kreq"] = 1000.0 * window_.coalesced / requests;
    values["core.evictions_per_kreq"] = 1000.0 * window_.evictions / requests;
    values["service.server_request_us"] = 1e6 * window_.request.mean();
    values["service.queue_wait_us"] = 1e6 * window_.queue.mean();
    values["service.batch_size"] = window_.batch.mean();
  }

  [[nodiscard]] std::string options_json() const override {
    const service::ServerOptions& o = server_->options();
    std::ostringstream out;
    out << "{\"endpoint\":\"unix socket\",\"cache_shards\":" << o.cache_shards
        << ",\"cache_capacity_per_shard\":" << o.cache_capacity_per_shard
        << ",\"dp_workers\":" << o.dp_workers
        << ",\"dp_threads_per_solve\":" << o.dp_threads_per_solve
        << ",\"max_queue\":" << o.max_queue << ",\"max_batch\":" << o.max_batch
        << ",\"solve_delay_ms\":" << o.solve_delay_ms
        << ",\"reply_timeout_ms\":" << o.reply_timeout_ms << ",\"clients\":" << kClients
        << "}";
    return out.str();
  }

 private:
  // Default ServerOptions apart from the socket path and the metrics sink.
  // The path is relative so it fits sockaddr_un wherever the run happens.
  void start_service() {
    service::ServerOptions options;
    options.socket_path = "lbsbench-" + std::to_string(::getpid()) + ".sock";
    options.metrics = &server_metrics_;
    server_ = std::make_unique<service::Server>(options);
    server_->start();
    for (int t = 0; t < kClients; ++t) {
      service::ClientOptions client;
      client.socket_path = options.socket_path;
      clients_.push_back(std::make_unique<service::Client>(client));
    }
  }

  std::optional<service::PlanResponse> request(int client, std::uint32_t id) {
    const Key& key = keys_[id];
    service::PlanResponse reply =
        clients_[static_cast<std::size_t>(client)]->plan(key.platform, key.items);
    if (reply.status != service::PlanStatus::Ok) return std::nullopt;
    check(id, reply);
    return reply;
  }

  // Every reply for a key must carry the counts of that key's first reply.
  void check(std::uint32_t id, const service::PlanResponse& reply) {
    const Key& key = keys_[id];
    check_plan(key.platform, key.items, reply.counts, reply.displacements(),
               reply.predicted_makespan, "service reply");
    std::lock_guard lock(first_mu_[id % first_mu_.size()]);
    std::optional<service::PlanResponse>& first = first_[id];
    if (!first) {
      first = reply;
    } else if (first->counts != reply.counts) {
      throw CheckFailure("service reply for key " + std::to_string(id) +
                         " differs from that key's first reply");
    }
  }

  static service::PlanRequest to_request(const Key& key) {
    service::PlanRequest request;
    request.items = key.items;
    request.platform = key.platform;
    return request;
  }

  core::ScatterPlan to_plan(const Key& key, const service::PlanResponse& reply) const {
    core::ScatterPlan plan;
    plan.distribution.counts = reply.counts;
    plan.displacements = reply.displacements();
    plan.predicted_makespan = reply.predicted_makespan;
    plan.predicted_finish = core::finish_times(key.platform, plan.distribution);
    plan.algorithm_used = reply.algorithm_used;
    plan.has_optimality_bound = reply.has_optimality_bound;
    plan.optimality_gap = reply.optimality_gap;
    plan.dp_cells_evaluated = reply.dp_cells_evaluated;
    return plan;
  }

  // A cache with the server's default geometry holding every plan the run
  // has seen so far: the traced replays probe it (and, on serve_churn,
  // insert into it once it is full and evicting).
  void build_standalone_cache() {
    standalone_ = std::make_unique<core::ShardedPlanCache>();
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      if (first_[id]) {
        standalone_->insert(core::make_plan_key(keys_[id].platform, keys_[id].items,
                                                core::Algorithm::Auto),
                            to_plan(keys_[id], *first_[id]));
      }
    }
  }

  // The traced op's own payload, replayed layer by layer under its id.
  void replay(int thread, const Key& key, const service::PlanResponse& reply,
              const OpTrace& trace) {
    core::PlanKey plan_key;
    {
      Span span(trace.lane, "core.make_plan_key", trace.op);
      plan_key = core::make_plan_key(key.platform, key.items, core::Algorithm::Auto);
    }
    std::optional<core::ScatterPlan> cached;
    {
      Span span(trace.lane, "core.cache_lookup", trace.op);
      cached = standalone_->lookup(plan_key);
    }
    if (!cached) {
      core::ScatterPlan plan = to_plan(key, reply);
      Span span(trace.lane, "core.cache_insert", trace.op);
      standalone_->insert(plan_key, plan);
    }
    const service::PlanRequest request = to_request(key);
    std::vector<std::uint8_t> request_payload, response_payload;
    service::Message request_message, response_message;
    {
      Span span(trace.lane, "service.encode_plan_request", trace.op);
      request_payload = service::encode_plan_request(request);
    }
    {
      Span span(trace.lane, "service.decode_request", trace.op);
      request_message = service::decode_message(request_payload);
    }
    {
      Span span(trace.lane, "service.encode_plan_response", trace.op);
      response_payload = service::encode_plan_response(reply);
    }
    {
      Span span(trace.lane, "service.decode_response", trace.op);
      response_message = service::decode_message(response_payload);
    }
    Span span(trace.lane, "service.ping", trace.op);
    if (!clients_[static_cast<std::size_t>(thread)]->ping()) {
      throw CheckFailure("ping on an idle connection failed");
    }
  }

  ServerTotals totals() const {
    ServerTotals out;
    const service::Server::Counters counters = server_->counters();
    out.requests = static_cast<double>(counters.requests);
    out.hits = static_cast<double>(counters.cache_hits);
    out.solved = static_cast<double>(counters.solved);
    out.coalesced = static_cast<double>(counters.coalesced);
    out.evictions = static_cast<double>(server_->cache().stats().evictions);
    out.request = server_metrics_.histogram("service.request_seconds").snapshot();
    out.queue = server_metrics_.histogram("service.queue_seconds").snapshot();
    out.batch = server_metrics_.histogram("service.batch_size").snapshot();
    return out;
  }

  std::vector<Key> keys_;
  std::vector<std::vector<std::uint32_t>> sequences_;  // per client: key ids
  std::vector<std::optional<service::PlanResponse>> first_;  // first reply per key
  std::array<std::mutex, 64> first_mu_;                      // stripes over first_
  std::uint32_t fixed_keys_;
  bool fill_until_evicting_;

  // Declared before the server and clients, which use it until they stop.
  mutable obs::Metrics server_metrics_;
  std::unique_ptr<service::Server> server_;
  std::vector<std::unique_ptr<service::Client>> clients_;

  std::unique_ptr<core::ShardedPlanCache> standalone_;
  ServerTotals window_start_, window_;
};

}  // namespace

// A working set of 256 keys, well inside the default 8 x 128-entry cache,
// each warmed by a real DP solve in set-up; the timed requests are uniform
// over it, so every one is a hit.
std::unique_ptr<Workload> make_serve_hits(std::uint64_t seed) {
  support::Rng rng(seed ^ 0x73657276655f68ULL);
  std::vector<Key> keys(256);
  for (Key& key : keys) {
    key.items = rng.uniform_int(2000, 4000);
    key.platform = table1_shaped(rng, key.items);
  }
  std::vector<std::vector<std::uint32_t>> sequences(kClients);
  for (auto& sequence : sequences) {
    sequence.resize(1 << 16);
    for (auto& id : sequence) id = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
  }
  return std::make_unique<ServeWorkload>(std::move(keys), std::move(sequences),
                                         /*fixed_keys=*/256, /*fill_until_evicting=*/false);
}

// Linear-cost keys (closed-form route) with p log-uniform over 64..512,
// drawn Zipf-like from a universe three times the cache capacity. Key ids
// are popularity ranks. p follows the rank through a golden-ratio
// sequence, so every seed sees the same request-weighted mix of sizes and
// only the costs change with it. Costs come from shared pools (stratified
// slopes) so the universe stays small in memory.
std::unique_ptr<Workload> make_serve_churn(std::uint64_t seed) {
  constexpr int kUniverse = 3 * 8 * 128;
  constexpr double kZipfExponent = 1.25;
  support::Rng rng(seed ^ 0x73657276655f63ULL);

  const std::vector<double> comm_slope = stratified_log_uniform(rng, 1024, 1e-6, 1e-4);
  const std::vector<double> comp_slope = stratified_log_uniform(rng, 1024, 1e-3, 3e-2);
  std::vector<model::Cost> comm_pool, comp_pool;
  for (std::size_t i = 0; i < comm_slope.size(); ++i) {
    comm_pool.push_back(model::Cost::linear(comm_slope[i]));
    comp_pool.push_back(model::Cost::linear(comp_slope[i]));
  }
  const model::Cost zero = model::Cost::zero();

  std::vector<Key> keys(kUniverse);
  for (int rank = 0; rank < kUniverse; ++rank) {
    Key& key = keys[static_cast<std::size_t>(rank)];
    const double u = std::fmod(0.5 + 0.6180339887498949 * rank, 1.0);
    const int p = static_cast<int>(std::lround(64.0 * std::pow(8.0, u)));
    key.items = rng.uniform_int(500000, 1000000);
    std::vector<int> links;
    for (int i = 0; i < p - 1; ++i) links.push_back(static_cast<int>(rng.uniform_int(0, 1023)));
    std::sort(links.begin(), links.end(), [&](int a, int b) {
      return comm_slope[static_cast<std::size_t>(a)] < comm_slope[static_cast<std::size_t>(b)];
    });
    key.platform.processors.resize(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      model::Processor& proc = key.platform.processors[static_cast<std::size_t>(i)];
      proc.comm = i + 1 < p ? comm_pool[static_cast<std::size_t>(links[static_cast<std::size_t>(i)])]
                            : zero;
      proc.comp = comp_pool[static_cast<std::size_t>(rng.uniform_int(0, 1023))];
    }
  }

  // Rank r is requested with weight 1 / (r + 1)^s.
  std::vector<double> cumulative(kUniverse);
  double total = 0.0;
  for (int r = 0; r < kUniverse; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfExponent);
    cumulative[static_cast<std::size_t>(r)] = total;
  }
  std::vector<std::vector<std::uint32_t>> sequences(kClients);
  for (auto& sequence : sequences) {
    sequence.resize(1 << 17);
    for (auto& id : sequence) {
      const auto rank =
          std::upper_bound(cumulative.begin(), cumulative.end(), rng.uniform(0.0, total)) -
          cumulative.begin();
      id = static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(rank, kUniverse - 1));
    }
  }
  return std::make_unique<ServeWorkload>(std::move(keys), std::move(sequences),
                                         /*fixed_keys=*/1024, /*fill_until_evicting=*/true);
}

}  // namespace perfbench
