// The planner performance layer: column-parallel DP, cost tables,
// divide-and-conquer reconstruction, and the plan cache. The contract
// under test everywhere: every engine variant produces *exactly* the
// serial reference distribution — scheduling and the table budget must
// be unobservable.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/dp.hpp"
#include "core/planner.hpp"
#include "core/recovery.hpp"
#include "core/sharded_plan_cache.hpp"
#include "model/cost_table.hpp"
#include "model/testbed.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace lbs::core {
namespace {

// Random increasing tabulated cost: cumulative positive increments.
model::Cost random_increasing_tabulated(support::Rng& rng, long long max_items) {
  std::vector<std::pair<long long, double>> samples;
  double y = 0.0;
  long long x = 0;
  int points = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < points; ++i) {
    x += rng.uniform_int(1, std::max<long long>(1, max_items / points));
    y += rng.uniform(0.01, 2.0);
    samples.emplace_back(x, y);
  }
  return model::Cost::tabulated(std::move(samples));
}

// A random platform with increasing (tabulated / linear / chunked) costs,
// root last with zero communication.
model::Platform random_increasing_platform(support::Rng& rng, int p, long long n) {
  model::Platform platform;
  for (int i = 0; i < p; ++i) {
    model::Processor proc;
    proc.label = "P" + std::to_string(i + 1);
    if (i + 1 == p) {
      proc.comm = model::Cost::zero();
    } else {
      switch (rng.uniform_int(0, 2)) {
        case 0: proc.comm = random_increasing_tabulated(rng, n); break;
        case 1: proc.comm = model::Cost::linear(rng.uniform(1e-5, 1e-3)); break;
        default:
          proc.comm = model::Cost::chunked(rng.uniform(1e-5, 1e-3),
                                           rng.uniform_int(3, 50),
                                           rng.uniform(1e-4, 1e-2));
      }
    }
    proc.comp = rng.bernoulli(0.5)
                    ? random_increasing_tabulated(rng, n)
                    : model::Cost::linear(rng.uniform(1e-4, 1e-2));
    platform.processors.push_back(proc);
  }
  return platform;
}

DpOptions serial_options() {
  DpOptions options;
  options.threads = 1;
  return options;
}

class DpVariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

// The satellite property test: random increasing-cost platforms, all
// engine variants agree on the makespan and produce valid distributions,
// n up to 5,000.
TEST_P(DpVariantsTest, AllVariantsAgreeOnRandomIncreasingPlatforms) {
  support::Rng rng(GetParam());
  for (long long n : {37LL, 1'000LL, 5'000LL}) {
    int p = static_cast<int>(rng.uniform_int(2, 6));
    auto platform = random_increasing_platform(rng, p, n);
    ASSERT_TRUE(platform.all_costs_increasing());

    auto exact_serial = exact_dp(platform, n, serial_options());
    auto exact_parallel = exact_dp(platform, n);
    auto optimized_serial = optimized_dp(platform, n, serial_options());
    auto optimized_parallel = optimized_dp(platform, n);

    // Parallel scheduling must be unobservable: bit-identical results.
    EXPECT_EQ(exact_serial.distribution.counts, exact_parallel.distribution.counts);
    EXPECT_EQ(exact_serial.cost, exact_parallel.cost);
    EXPECT_EQ(optimized_serial.distribution.counts,
              optimized_parallel.distribution.counts);
    EXPECT_EQ(optimized_serial.cost, optimized_parallel.cost);

    // Algorithms 1 and 2 find the same optimum (distributions may differ
    // on ties, the makespan may not).
    EXPECT_NEAR(exact_serial.cost, optimized_serial.cost,
                1e-12 * std::max(1.0, exact_serial.cost))
        << "seed " << GetParam() << " n " << n;

    // Both distributions are valid (validate() ran inside) and evaluate
    // to their claimed makespans under the model.
    EXPECT_NEAR(makespan(platform, exact_serial.distribution), exact_serial.cost,
                1e-9 * std::max(1.0, exact_serial.cost));
    EXPECT_NEAR(makespan(platform, optimized_serial.distribution),
                optimized_serial.cost,
                1e-9 * std::max(1.0, optimized_serial.cost));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVariantsTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

TEST(DivideConquer, MatchesChoiceTableBitwise) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  const long long p = platform.size();
  for (long long n : {0LL, 1LL, 17LL, 5'000LL, 20'000LL}) {
    // The default budget makes every one of these a single table pass.
    auto reference = optimized_dp(platform, n, serial_options());
    EXPECT_EQ(reference.cells_evaluated, (n + 1) + (p - 1) * n) << "n " << n;

    for (std::size_t budget : {std::size_t{1}, std::size_t{1} << 20}) {
      const bool recurses =
          static_cast<std::size_t>(p - 1) * static_cast<std::size_t>(n + 1) * 4 > budget;
      for (int threads : {1, 3, 0}) {
        DpOptions dc_opts;
        dc_opts.threads = threads;
        dc_opts.dc_table_bytes = budget;
        auto dc = optimized_dp(platform, n, dc_opts);
        SCOPED_TRACE("n " + std::to_string(n) + " budget " + std::to_string(budget) +
                     " threads " + std::to_string(threads));
        EXPECT_EQ(reference.distribution.counts, dc.distribution.counts);
        EXPECT_EQ(reference.cost, dc.cost);
        // Recursion re-sweeps columns, and cells_evaluated says so.
        if (recurses) {
          EXPECT_GT(dc.cells_evaluated, reference.cells_evaluated);
        } else {
          EXPECT_EQ(dc.cells_evaluated, reference.cells_evaluated);
        }
      }
    }
  }
}

TEST(DivideConquer, ExactDpMatchesToo) {
  support::Rng rng(99);
  auto platform = random_increasing_platform(rng, 5, 500);
  DpOptions dc_opts;
  dc_opts.dc_table_bytes = 1;
  auto reference = exact_dp(platform, 500, serial_options());
  auto dc = exact_dp(platform, 500, dc_opts);
  EXPECT_EQ(reference.distribution.counts, dc.distribution.counts);
  EXPECT_EQ(reference.cost, dc.cost);
}

TEST(DivideConquer, SingleProcessorAndTinyPlatforms) {
  model::Platform one;
  model::Processor proc;
  proc.label = "P1";
  proc.comm = model::Cost::zero();
  proc.comp = model::Cost::linear(2.0);
  one.processors.push_back(proc);
  DpOptions dc_opts;
  dc_opts.dc_table_bytes = 1;
  auto result = optimized_dp(one, 9, dc_opts);
  EXPECT_EQ(result.distribution.counts, (std::vector<long long>{9}));
  EXPECT_DOUBLE_EQ(result.cost, 18.0);

  // Past the int32 choice-table range a lone processor still solves: it
  // takes every item, evaluated as one cell.
  const long long huge = static_cast<long long>(std::numeric_limits<std::int32_t>::max()) + 1;
  auto beyond = optimized_dp(one, huge);
  EXPECT_EQ(beyond.distribution.counts, (std::vector<long long>{huge}));
  EXPECT_EQ(beyond.cost, proc.comp(huge));
  EXPECT_EQ(beyond.cells_evaluated, 1);
}

TEST(CostTable, RowsMatchCostFunctionsAndDpAgrees) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  const long long n = 2'000;
  model::CostTable table(platform, n);
  ASSERT_EQ(table.processors(), platform.size());
  ASSERT_EQ(table.items(), n);
  for (int i = 0; i < platform.size(); ++i) {
    auto comm = table.comm_row(i);
    auto comp = table.comp_row(i);
    ASSERT_EQ(comm.size(), static_cast<std::size_t>(n) + 1);
    for (long long e : {0LL, 1LL, 997LL, n}) {
      EXPECT_EQ(comm[static_cast<std::size_t>(e)], platform[i].comm(e));
      EXPECT_EQ(comp[static_cast<std::size_t>(e)], platform[i].comp(e));
    }
  }

  DpOptions with_table;
  with_table.cost_table = &table;
  auto reference = optimized_dp(platform, n, serial_options());
  auto from_table = optimized_dp(platform, n, with_table);
  EXPECT_EQ(reference.distribution.counts, from_table.distribution.counts);
  EXPECT_EQ(reference.cost, from_table.cost);

  // A table covering more items than requested is usable as-is.
  auto smaller = optimized_dp(platform, n / 2, with_table);
  auto smaller_ref = optimized_dp(platform, n / 2, serial_options());
  EXPECT_EQ(smaller_ref.distribution.counts, smaller.distribution.counts);
}

TEST(CostTable, MismatchedPlatformIsRejected) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  model::CostTable table(platform, 100);
  DpOptions with_table;
  with_table.cost_table = &table;
  // More items than the table covers.
  EXPECT_THROW(optimized_dp(platform, 101, with_table), Error);
}

TEST(OneShardCache, HitsRepeatPlansAndTracksStats) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  ShardedPlanCache cache(1, 8);

  auto first = cache.plan(platform, 4321);
  auto second = cache.plan(platform, 4321);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(first.distribution.counts, second.distribution.counts);
  EXPECT_EQ(first.displacements, second.displacements);
  EXPECT_EQ(first.predicted_makespan, second.predicted_makespan);

  // A cached plan is exactly what the uncached planner would produce.
  auto uncached = plan_scatter(platform, 4321);
  EXPECT_EQ(uncached.distribution.counts, second.distribution.counts);

  // Different item counts and different algorithms are distinct keys.
  cache.plan(platform, 1234);
  cache.plan(platform, 4321, Algorithm::OptimizedDp);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
}

TEST(OneShardCache, DistinguishesPlatformsByCostStructure) {
  ShardedPlanCache cache(1, 8);
  model::Platform a;
  model::Platform b;
  for (int i = 0; i < 3; ++i) {
    model::Processor proc;
    proc.label = "P" + std::to_string(i);
    proc.comm = i == 2 ? model::Cost::zero() : model::Cost::linear(1e-4);
    proc.comp = model::Cost::linear(1e-2);
    a.processors.push_back(proc);
    proc.comp = model::Cost::linear(2e-2);  // different compute speed
    b.processors.push_back(proc);
  }
  auto plan_a = cache.plan(a, 1000);
  auto plan_b = cache.plan(b, 1000);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Same structure again: hit, regardless of labels.
  model::Platform a2 = a;
  for (auto& proc : a2.processors) proc.label += "-renamed";
  cache.plan(a2, 1000);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(OneShardCache, EvictsLeastRecentlyUsed) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  ShardedPlanCache cache(1, 2);
  cache.plan(platform, 100);  // miss -> [100]
  cache.plan(platform, 200);  // miss -> [200, 100]
  cache.plan(platform, 100);  // hit  -> [100, 200]
  cache.plan(platform, 300);  // miss, evicts 200 -> [300, 100]
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  cache.plan(platform, 100);  // hit: recently used, survived -> [100, 300]
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.plan(platform, 200);  // miss again: it was evicted
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PlanScatter, CacheOptionIsTransparent) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  ShardedPlanCache cache(1, 4);
  PlannerOptions options;
  options.cache = &cache;
  auto cached1 = plan_scatter(platform, 7777, options);
  auto cached2 = plan_scatter(platform, 7777, options);
  auto plain = plan_scatter(platform, 7777);
  EXPECT_EQ(cached1.distribution.counts, plain.distribution.counts);
  EXPECT_EQ(cached2.distribution.counts, plain.distribution.counts);
  EXPECT_EQ(cached2.predicted_finish, plain.predicted_finish);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Replanner, CachedReplansStayCorrect) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto replan = make_ft_replanner(platform);
  std::vector<int> alive{0, 2, 5, platform.size() - 1};
  auto counts_first = replan(alive, 10'000);
  auto counts_second = replan(alive, 10'000);  // cache hit path
  EXPECT_EQ(counts_first, counts_second);
  ASSERT_EQ(counts_first.size(), alive.size());
  long long total = 0;
  for (long long c : counts_first) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, 10'000);
}

}  // namespace
}  // namespace lbs::core
