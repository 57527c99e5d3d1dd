// Metrics-layer tests: counter/histogram semantics, snapshot formats, and
// the one-shard plan cache's hit/miss/eviction accounting — exact under
// LRU churn, consistent under concurrent plan_scatter callers (the TSan CI
// job runs this suite), and mirrored one-to-one by cache.hit/cache.miss
// trace instants. Also covers the planner/DP counters and the mq runtime's
// per-link byte and port-occupancy metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "core/sharded_plan_cache.hpp"
#include "model/platform.hpp"
#include "mq/platform_link.hpp"
#include "mq/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lbs {
namespace {

model::Platform tiny_platform(int workers = 3) {
  model::Platform platform;
  for (int i = 0; i < workers; ++i) {
    model::Processor proc;
    proc.label = "w" + std::to_string(i);
    proc.comm = model::Cost::linear(1e-4 * (i + 1));
    proc.comp = model::Cost::linear(2e-3 + 1e-3 * i);
    platform.processors.push_back(proc);
  }
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(3e-3);
  platform.processors.push_back(root);
  return platform;
}

TEST(Metrics, CounterAccumulates) {
  obs::Metrics metrics;
  auto& counter = metrics.counter("test.counter");
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(metrics.counter("test.counter").value(), 42u);
}

TEST(Metrics, HistogramTracksExactStatsAndBoundedQuantiles) {
  obs::Metrics metrics;
  auto& histogram = metrics.histogram("test.hist");
  for (double sample : {1.0, 2.0, 4.0, 8.0}) histogram.observe(sample);

  auto stats = histogram.snapshot();
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.sum, 15.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 8.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.75);

  // Quantiles are upper bounds from bucket boundaries, pinned to exact
  // min/max at the ends.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 8.0);
  double p50 = histogram.quantile(0.5);
  EXPECT_GE(p50, 2.0);
  EXPECT_LE(p50, 8.0);
}

TEST(Metrics, HistogramHandlesZeros) {
  obs::Metrics metrics;
  auto& histogram = metrics.histogram("zeros");
  histogram.observe(0.0);
  histogram.observe(0.0);
  auto stats = histogram.snapshot();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.min, 0.0);
  EXPECT_DOUBLE_EQ(stats.max, 0.0);
}

TEST(Metrics, SnapshotsListEveryMetricByName) {
  obs::Metrics metrics;
  metrics.counter("alpha.count").add(3);
  metrics.histogram("beta.seconds").observe(0.5);

  std::string text = metrics.text_snapshot();
  EXPECT_NE(text.find("alpha.count 3"), std::string::npos);
  EXPECT_NE(text.find("beta.seconds count=1"), std::string::npos);

  std::string json = metrics.json_snapshot();
  EXPECT_NE(json.find("\"alpha.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"beta.seconds\":{\"count\":1"), std::string::npos);
}

TEST(PlanCacheMetrics, HitsMissesAndEvictionsAreExact) {
  auto platform = tiny_platform();
  core::ShardedPlanCache cache(1, 2);
  obs::Metrics metrics;
  obs::Tracer tracer;
  cache.set_metrics(&metrics);
  cache.set_tracer(&tracer);

  // miss(10), hit(10), miss(20), miss(30)+evict(10), hit(20), miss(10)+evict(30)
  cache.plan(platform, 10);
  cache.plan(platform, 10);
  cache.plan(platform, 20);
  cache.plan(platform, 30);
  cache.plan(platform, 20);
  cache.plan(platform, 10);

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(metrics.counter("plan_cache.hits").value(), stats.hits);
  EXPECT_EQ(metrics.counter("plan_cache.misses").value(), stats.misses);
  EXPECT_EQ(metrics.counter("plan_cache.evictions").value(), stats.evictions);
  // One shard publishes only the totals, no per-shard repeats of them.
  EXPECT_EQ(metrics.text_snapshot().find("plan_cache.shard"), std::string::npos);

  // The trace mirrors every probe as an instant carrying the item count.
  auto log = tracer.collect();
  auto hits = log.of_type(obs::EventType::CacheHit);
  auto misses = log.of_type(obs::EventType::CacheMiss);
  ASSERT_EQ(hits.size(), 2u);
  ASSERT_EQ(misses.size(), 4u);
  EXPECT_EQ(hits[0].arg0, 10);
  EXPECT_EQ(hits[1].arg0, 20);
  EXPECT_EQ(misses.back().arg0, 10);
  for (const auto& event : hits) EXPECT_TRUE(event.instant);
}

TEST(PlanCacheMetrics, ChurnMatchesAReferenceLruExactly) {
  auto platform = tiny_platform();
  constexpr std::size_t kCapacity = 4;
  core::ShardedPlanCache cache(1, kCapacity);
  obs::Metrics metrics;
  cache.set_metrics(&metrics);

  // Reference LRU over the same probe sequence (keys are item counts:
  // one platform, one algorithm).
  std::list<long long> reference;  // front = most recent
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 200; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    long long items = static_cast<long long>(seed >> 33) % 10 + 1;
    auto it = std::find(reference.begin(), reference.end(), items);
    if (it != reference.end()) {
      ++hits;
      reference.erase(it);
    } else {
      ++misses;
      if (reference.size() == kCapacity) {
        reference.pop_back();
        ++evictions;
      }
    }
    reference.push_front(items);

    auto plan = cache.plan(platform, items);
    EXPECT_EQ(plan.distribution.total(), items);
  }

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.evictions, evictions);
  EXPECT_EQ(metrics.counter("plan_cache.hits").value(), hits);
  EXPECT_EQ(metrics.counter("plan_cache.misses").value(), misses);
  EXPECT_EQ(metrics.counter("plan_cache.evictions").value(), evictions);
  EXPECT_EQ(cache.size(), kCapacity);
}

TEST(PlanCacheMetrics, ConcurrentPlanScatterCallersStayConsistent) {
  auto platform = tiny_platform();
  core::ShardedPlanCache cache(1, 64);
  obs::Metrics metrics;
  obs::Tracer tracer;
  cache.set_metrics(&metrics);
  cache.set_tracer(&tracer);

  constexpr int kThreads = 4;
  constexpr int kProbes = 50;
  std::atomic<int> bad_totals{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kProbes; ++i) {
        long long items = (t * 7 + i * 13) % 10 + 1;
        auto plan = cache.plan(platform, items);
        if (plan.distribution.total() != items) bad_totals.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_totals.load(), 0);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kProbes));
  EXPECT_GE(stats.misses, 10u);  // at least one per distinct key
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(cache.size(), 10u);
  EXPECT_EQ(metrics.counter("plan_cache.hits").value(), stats.hits);
  EXPECT_EQ(metrics.counter("plan_cache.misses").value(), stats.misses);

  auto log = tracer.collect();
  EXPECT_EQ(log.of_type(obs::EventType::CacheHit).size() +
                log.of_type(obs::EventType::CacheMiss).size(),
            static_cast<std::size_t>(kThreads * kProbes));
}

TEST(PlannerMetrics, PlanScatterPublishesDpAndPlannerCounters) {
  auto platform = tiny_platform();
  obs::Metrics metrics;
  obs::Tracer tracer;
  core::PlannerOptions options;
  options.algorithm = core::Algorithm::OptimizedDp;
  options.metrics = &metrics;
  options.tracer = &tracer;

  auto plan = core::plan_scatter(platform, 500, options);
  EXPECT_EQ(plan.distribution.total(), 500);
  EXPECT_GT(plan.dp_cells_evaluated, 0);
  EXPECT_GE(plan.dp_threads, 1);

  EXPECT_EQ(metrics.counter("planner.plans").value(), 1u);
  EXPECT_EQ(metrics.counter("dp.solves").value(), 1u);
  EXPECT_EQ(metrics.counter("dp.cells_evaluated").value(),
            static_cast<std::uint64_t>(plan.dp_cells_evaluated));
  EXPECT_EQ(metrics.histogram("planner.plan_seconds").snapshot().count, 1u);

  auto log = tracer.collect();
  auto plans = log.of_type(obs::EventType::ScatterPlan);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans.front().arg0, 500);
  EXPECT_EQ(plans.front().arg1,
            static_cast<long long>(core::Algorithm::OptimizedDp));
  EXPECT_EQ(plans.front().peer, platform.size());
  auto solves = log.of_type(obs::EventType::DpSolve);
  ASSERT_EQ(solves.size(), 1u);
  EXPECT_EQ(solves.front().arg1, plan.dp_cells_evaluated);
}

TEST(MqMetrics, RuntimePublishesLinkBytesAndPortOccupancy) {
  auto platform = tiny_platform();
  const int p = platform.size();
  auto plan = core::plan_scatter(platform, 2000);
  for (long long count : plan.distribution.counts) ASSERT_GT(count, 0);
  std::vector<double> data(2000, 1.0);

  obs::Metrics metrics;
  mq::RuntimeOptions options;
  options.ranks = p;
  options.time_scale = 0.01;
  options.link_cost = mq::make_link_cost(platform, sizeof(double));
  options.metrics = &metrics;
  mq::Runtime::run(options, [&](mq::Comm& comm) {
    int root = comm.size() - 1;
    auto mine = comm.scatterv<double>(root, data, plan.distribution.counts);
    mq::emulate_compute(comm, platform[comm.rank()].comp.per_item_slope() *
                                  static_cast<double>(mine.size()));
  });

  const int root = p - 1;
  for (int r = 0; r < root; ++r) {
    std::string name = "mq.link.bytes[" + std::to_string(root) + "->" +
                       std::to_string(r) + "]";
    EXPECT_EQ(metrics.counter(name).value(),
              static_cast<std::uint64_t>(
                  plan.distribution.counts[static_cast<std::size_t>(r)]) *
                  sizeof(double))
        << name;
  }
  // The root's NIC was busy pacing its serialized sends (port occupancy);
  // workers blocked in recv while earlier peers were served (the stair).
  EXPECT_GT(metrics.counter("mq.rank.nic_busy_ns[" + std::to_string(root) + "]")
                .value(),
            0u);
  EXPECT_GT(metrics.counter("mq.rank.recv_wait_ns[1]").value(), 0u);
}

}  // namespace
}  // namespace lbs
