// Cross-module integration tests: every solver against every other, the
// simulator against the analytic model, and the paper's headline numbers
// as regression guards.

#include <gtest/gtest.h>

#include <numeric>

#include "core/closed_form.hpp"
#include "core/dp.hpp"
#include "core/heuristic.hpp"
#include "core/ordering.hpp"
#include "core/planner.hpp"
#include "core/rounding.hpp"
#include "gridsim/gridsim.hpp"
#include "lp/exact_heuristic.hpp"
#include "model/testbed.hpp"
#include "mq/platform_link.hpp"
#include "mq/runtime.hpp"
#include "support/rng.hpp"

namespace lbs {
namespace {

struct SolverSweepCase {
  std::uint64_t seed;
  int machines;
  long long items;
};

class SolverCrossValidation : public ::testing::TestWithParam<SolverSweepCase> {};

TEST_P(SolverCrossValidation, AllMethodsAgreeOnLinearPlatforms) {
  auto param = GetParam();
  support::Rng rng(param.seed);
  model::Grid grid = model::random_grid(rng, param.machines, /*affine=*/false);
  model::Platform platform = core::ordered_platform(
      grid, model::ProcessorRef{grid.data_home(), 0},
      core::OrderingPolicy::DescendingBandwidth);
  long long n = param.items;

  // Four independent solvers of the same problem.
  auto dp = core::optimized_dp(platform, n);
  auto heuristic = core::lp_heuristic(platform, n);
  auto exact_heuristic = lp::lp_heuristic_exact(platform, n);
  auto closed = core::solve_linear(platform, n);
  auto closed_rounded = core::round_distribution(closed.share, n);

  double slack = core::rounding_guarantee_slack(platform);

  // The DP optimum is the reference. Every rounded rational method must
  // land within the Eq. 4 slack of it; the rational duration lower-bounds it.
  EXPECT_LE(closed.duration, dp.cost + 1e-9);
  EXPECT_GE(heuristic.makespan, dp.cost - 1e-9);
  EXPECT_LE(heuristic.makespan, dp.cost + slack + 1e-9);
  EXPECT_GE(exact_heuristic.makespan, dp.cost - 1e-9);
  EXPECT_LE(exact_heuristic.makespan, dp.cost + slack + 1e-9);
  double closed_makespan = core::makespan(platform, closed_rounded);
  EXPECT_GE(closed_makespan, dp.cost - 1e-9);
  EXPECT_LE(closed_makespan, dp.cost + slack + 1e-9);

  // The two LP paths agree on the rational optimum (double tolerance).
  EXPECT_NEAR(exact_heuristic.rational_makespan.to_double(),
              heuristic.rational_makespan,
              std::max(1e-9, heuristic.rational_makespan * 1e-5));

  // And the simulator realizes exactly what Eq. 2 predicts.
  auto sim = gridsim::simulate_scatter(platform, dp.distribution);
  EXPECT_NEAR(sim.timeline.makespan(), dp.cost, std::max(1e-9, dp.cost * 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGrids, SolverCrossValidation,
    ::testing::Values(SolverSweepCase{11, 2, 500}, SolverSweepCase{12, 3, 800},
                      SolverSweepCase{13, 4, 300}, SolverSweepCase{14, 5, 1000},
                      SolverSweepCase{15, 2, 37}, SolverSweepCase{16, 3, 999},
                      SolverSweepCase{17, 6, 400}, SolverSweepCase{18, 4, 64}));

class AffineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AffineSweep, HeuristicWithinGuaranteeOnAffinePlatforms) {
  support::Rng rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    model::Grid grid = model::random_grid(rng, 3, /*affine=*/true);
    model::Platform platform =
        make_platform(grid, model::ProcessorRef{grid.data_home(), 0});
    long long n = rng.uniform_int(50, 400);

    auto dp = core::optimized_dp(platform, n);
    auto heuristic = core::lp_heuristic(platform, n);
    EXPECT_GE(heuristic.makespan, dp.cost - 1e-9);
    EXPECT_LE(heuristic.makespan, dp.cost + heuristic.guarantee_slack + 1e-9);

    auto exact = lp::lp_heuristic_exact(platform, n);
    EXPECT_GE(exact.makespan, dp.cost - 1e-9);
    // The exact path approximates coefficients (bounded denominators), so
    // allow a small relative epsilon on top of the guarantee.
    EXPECT_LE(exact.makespan, dp.cost + heuristic.guarantee_slack + dp.cost * 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineSweep, ::testing::Values(21u, 22u, 23u, 24u));

TEST(PaperHeadlines, UniformRunShape) {
  // Figure 2 guards: earliest/latest finish bands and the 3x imbalance.
  auto grid = model::paper_testbed();
  auto platform = core::ordered_platform(grid, model::paper_root(grid),
                                         core::OrderingPolicy::DescendingBandwidth);
  auto uniform = core::plan_scatter(platform, model::kPaperRayCount,
                                    core::Algorithm::Uniform);
  auto finish = uniform.predicted_finish;
  double earliest = *std::min_element(finish.begin(), finish.end());
  double latest = *std::max_element(finish.begin(), finish.end());
  EXPECT_NEAR(earliest, 226.0, 5.0);
  EXPECT_NEAR(latest, 829.0, 5.0);
  EXPECT_GT(latest / earliest, 3.0);
}

TEST(PaperHeadlines, BalancedRunShape) {
  // Figure 3 guards: ~404 s makespan, ~2x speedup over uniform.
  auto grid = model::paper_testbed();
  auto platform = core::ordered_platform(grid, model::paper_root(grid),
                                         core::OrderingPolicy::DescendingBandwidth);
  auto balanced = core::plan_scatter(platform, model::kPaperRayCount);
  auto uniform = core::plan_scatter(platform, model::kPaperRayCount,
                                    core::Algorithm::Uniform);
  EXPECT_NEAR(balanced.predicted_makespan, 404.0, 3.0);
  EXPECT_NEAR(uniform.predicted_makespan / balanced.predicted_makespan, 2.05, 0.1);
}

TEST(PaperHeadlines, OrderingPenaltyShape) {
  // Figure 4 guard: ascending order costs ~10 s deterministically.
  auto grid = model::paper_testbed();
  auto root = model::paper_root(grid);
  auto descending = core::ordered_platform(grid, root,
                                           core::OrderingPolicy::DescendingBandwidth);
  auto ascending = core::ordered_platform(grid, root,
                                          core::OrderingPolicy::AscendingBandwidth);
  double t_desc = core::plan_scatter(descending, model::kPaperRayCount).predicted_makespan;
  double t_asc = core::plan_scatter(ascending, model::kPaperRayCount).predicted_makespan;
  EXPECT_NEAR(t_asc - t_desc, 10.4, 1.5);
}

TEST(EndToEnd, PlanExecutesOnMqRuntimeWithEmulatedTestbed) {
  // The full pipeline at small scale: plan on the Table 1 platform, run
  // over mq with pacing, check per-rank received counts and that the
  // balanced emulated run beats the uniform one.
  auto grid = model::paper_testbed();
  auto platform = core::ordered_platform(grid, model::paper_root(grid),
                                         core::OrderingPolicy::DescendingBandwidth);
  long long n = 4000;
  auto balanced = core::plan_scatter(platform, n);
  auto uniform = core::plan_scatter(platform, n, core::Algorithm::Uniform);

  auto run = [&](const std::vector<long long>& counts) {
    mq::RuntimeOptions options;
    options.ranks = platform.size();
    options.time_scale = 0.05;
    options.link_cost = mq::make_link_cost(platform, sizeof(double));
    double slowest = 0.0;
    std::mutex slowest_mutex;
    mq::Runtime::run(options, [&](mq::Comm& comm) {
      int root = comm.size() - 1;
      std::vector<double> data;
      if (comm.rank() == root) data.assign(static_cast<std::size_t>(n), 1.5);
      auto mine = comm.scatterv<double>(root, data, counts);
      EXPECT_EQ(mine.size(),
                static_cast<std::size_t>(counts[static_cast<std::size_t>(comm.rank())]));
      mq::emulate_compute(
          comm, platform[comm.rank()].comp.per_item_slope() *
                    static_cast<double>(mine.size()));
      double finish = comm.wtime();
      std::lock_guard lock(slowest_mutex);
      slowest = std::max(slowest, finish);
    });
    return slowest;
  };

  double balanced_time = run(balanced.distribution.counts);
  double uniform_time = run(uniform.distribution.counts);
  EXPECT_LT(balanced_time, uniform_time);
}

TEST(EndToEnd, RoundedDistributionsAlwaysValid) {
  // Fuzz the whole planning stack: random platforms, random n, every
  // algorithm — plans must always validate (sum, non-negativity).
  support::Rng rng(31u);
  for (int trial = 0; trial < 20; ++trial) {
    model::Grid grid = model::random_grid(rng, static_cast<int>(rng.uniform_int(1, 5)),
                                          rng.bernoulli(0.5));
    model::Platform platform =
        make_platform(grid, model::ProcessorRef{grid.data_home(), 0});
    long long n = rng.uniform_int(0, 2000);
    for (auto algorithm : {core::Algorithm::Auto, core::Algorithm::Uniform,
                           core::Algorithm::OptimizedDp}) {
      auto plan = core::plan_scatter(platform, n, algorithm);
      EXPECT_EQ(plan.distribution.total(), n);
      for (long long c : plan.distribution.counts) EXPECT_GE(c, 0);
      EXPECT_GE(plan.predicted_makespan, 0.0);
    }
  }
}

}  // namespace
}  // namespace lbs
