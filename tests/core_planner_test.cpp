#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/dp.hpp"
#include "core/root_selection.hpp"
#include "model/grid_parser.hpp"
#include "model/testbed.hpp"
#include "support/error.hpp"

namespace lbs::core {
namespace {

TEST(Planner, AutoPicksClosedFormForLinearCosts) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto plan = plan_scatter(platform, 100000);
  EXPECT_EQ(plan.algorithm_used, Algorithm::LinearClosedForm);
  EXPECT_EQ(plan.distribution.total(), 100000);
}

TEST(Planner, AutoPicksHeuristicForAffineCosts) {
  model::Platform platform;
  model::Processor p1;
  p1.label = "affine";
  p1.comm = model::Cost::affine(0.5, 0.01);
  p1.comp = model::Cost::linear(0.1);
  platform.processors.push_back(p1);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(0.2);
  platform.processors.push_back(root);
  auto plan = plan_scatter(platform, 100);
  EXPECT_EQ(plan.algorithm_used, Algorithm::LpHeuristic);
}

// Theorem 1's chain needs every compute slope positive. A linear platform
// with a free worker or root is still valid; Auto plans it on the LP route.
TEST(Planner, AutoPlansLinearCostsWithAZeroComputeSlope) {
  model::Platform platform;
  model::Processor worker;
  worker.label = "free-compute";
  worker.comm = model::Cost::linear(1e-3);
  worker.comp = model::Cost::linear(0.0);
  platform.processors.push_back(worker);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(2e-3);
  platform.processors.push_back(root);
  ScatterPlan plan = plan_scatter(platform, 1000);
  EXPECT_EQ(plan.algorithm_used, Algorithm::LpHeuristic);
  EXPECT_EQ(plan.distribution.total(), 1000);
  DpResult optimum = exact_dp(platform, 1000);
  EXPECT_GE(plan.predicted_makespan, optimum.cost - 1e-12);
  EXPECT_LE(plan.predicted_makespan, optimum.cost + plan.optimality_gap + 1e-12);

  // A root that computes for free takes every item, and nothing waits.
  platform.processors[1].comp = model::Cost::zero();
  plan = plan_scatter(platform, 1000);
  EXPECT_EQ(plan.algorithm_used, Algorithm::LpHeuristic);
  EXPECT_EQ(plan.distribution.counts, (std::vector<long long>{0, 1000}));
  EXPECT_EQ(plan.predicted_makespan, 0.0);
}

TEST(Planner, AutoPicksOptimizedDpForIncreasingCosts) {
  model::Platform platform;
  model::Processor p1;
  p1.label = "chunked";
  p1.comm = model::Cost::chunked(0.1, 5, 1.0);
  p1.comp = model::Cost::linear(0.5);
  platform.processors.push_back(p1);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(1.0);
  platform.processors.push_back(root);
  auto plan = plan_scatter(platform, 50);
  EXPECT_EQ(plan.algorithm_used, Algorithm::OptimizedDp);
}

TEST(Planner, AutoFallsBackToExactDp) {
  model::Platform platform;
  model::Processor p1;
  p1.label = "dip";
  p1.comm = model::Cost::linear(0.1);
  p1.comp = model::Cost::tabulated({{5, 10.0}, {10, 4.0}});
  platform.processors.push_back(p1);
  model::Processor root;
  root.label = "root";
  root.comm = model::Cost::zero();
  root.comp = model::Cost::linear(1.0);
  platform.processors.push_back(root);
  auto plan = plan_scatter(platform, 20);
  EXPECT_EQ(plan.algorithm_used, Algorithm::ExactDp);
}

TEST(Planner, ForcedAlgorithmHonored) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto plan = plan_scatter(platform, 500, Algorithm::OptimizedDp);
  EXPECT_EQ(plan.algorithm_used, Algorithm::OptimizedDp);
  auto dp = optimized_dp(platform, 500);
  EXPECT_DOUBLE_EQ(plan.predicted_makespan, dp.cost);
}

TEST(Planner, ForcedHeuristicOnNonAffineThrows) {
  model::Platform platform;
  model::Processor p;
  p.label = "tab";
  p.comm = model::Cost::zero();
  p.comp = model::Cost::tabulated({{10, 5.0}});
  platform.processors.push_back(p);
  EXPECT_THROW(plan_scatter(platform, 10, Algorithm::LpHeuristic), lbs::Error);
}

TEST(Planner, UniformBaselineMatchesOriginalProgram) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto plan = plan_scatter(platform, 817101, Algorithm::Uniform);
  EXPECT_EQ(plan.algorithm_used, Algorithm::Uniform);
  // 817101 = 16 * 51068 + 13: first 13 processors get 51069.
  EXPECT_EQ(plan.distribution.counts[0], 51069);
  EXPECT_EQ(plan.distribution.counts[15], 51068);
}

TEST(Planner, DisplacementsArePrefixSums) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto plan = plan_scatter(platform, 12345);
  long long offset = 0;
  for (int i = 0; i < platform.size(); ++i) {
    EXPECT_EQ(plan.displacements[static_cast<std::size_t>(i)], offset);
    offset += plan.distribution.counts[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(offset, 12345);
}

TEST(Planner, PredictedFinishMatchesEquationOne) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto plan = plan_scatter(platform, 5000);
  auto times = finish_times(platform, plan.distribution);
  ASSERT_EQ(plan.predicted_finish.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan.predicted_finish[i], times[i]);
  }
}

TEST(Planner, BalancedPlanBeatsUniformOnPaperTestbed) {
  auto grid = model::paper_testbed();
  auto platform = ordered_platform(grid, model::paper_root(grid),
                                   OrderingPolicy::DescendingBandwidth);
  long long n = model::kPaperRayCount;
  auto balanced = plan_scatter(platform, n);
  auto uniform = plan_scatter(platform, n, Algorithm::Uniform);
  // The paper: "the total execution duration is approximately half the
  // duration of the first experiment".
  EXPECT_LT(balanced.predicted_makespan, 0.6 * uniform.predicted_makespan);
}

TEST(Planner, NarrowingToIntSucceedsAtSmallScale) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  auto plan = plan_scatter(platform, 12345);
  auto counts = plan.counts_as_int();
  auto displs = plan.displacements_as_int();
  ASSERT_EQ(counts.size(), plan.distribution.counts.size());
  ASSERT_EQ(displs.size(), plan.displacements.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(static_cast<long long>(counts[i]), plan.distribution.counts[i]);
    EXPECT_EQ(static_cast<long long>(displs[i]), plan.displacements[i]);
  }
}

TEST(Planner, NarrowingThrowsInsteadOfWrappingBeyondIntMax) {
  // Regression: at n = 5e9 the tail displacements exceed INT_MAX; feeding
  // the old silently-truncated values to MPI_Scatterv corrupted the
  // scatter. The narrowing accessors must throw instead.
  model::Platform platform;
  for (int i = 0; i < 4; ++i) {
    model::Processor p;
    p.label = "P" + std::to_string(i + 1);
    p.comm = i == 3 ? model::Cost::zero() : model::Cost::linear(1e-9);
    p.comp = model::Cost::linear(1e-9);
    platform.processors.push_back(p);
  }
  const long long n = 5'000'000'000LL;
  auto plan = plan_scatter(platform, n, Algorithm::Uniform);
  EXPECT_EQ(plan.distribution.total(), n);
  // Every individual count (1.25e9) fits in int, so counts narrow fine...
  EXPECT_NO_THROW(plan.counts_as_int());
  // ...but the later displacements (2.5e9, 3.75e9) cannot.
  EXPECT_THROW(plan.displacements_as_int(), lbs::Error);

  // And when a single count overflows, counts_as_int must throw too.
  auto big = plan_scatter(platform, 10'000'000'000LL, Algorithm::Uniform);
  EXPECT_THROW(big.counts_as_int(), lbs::Error);
}

TEST(Planner, AlgorithmNames) {
  EXPECT_NE(to_string(Algorithm::ExactDp).find("Algorithm 1"), std::string::npos);
  EXPECT_NE(to_string(Algorithm::OptimizedDp).find("Algorithm 2"), std::string::npos);
  EXPECT_NE(to_string(Algorithm::LpHeuristic).find("3.3"), std::string::npos);
}

TEST(RootSelection, DataHomeWinsWhenStagingIsExpensive) {
  auto grid = model::paper_testbed();
  auto result = select_root(grid, model::kPaperRayCount);
  ASSERT_EQ(result.candidates.size(), 16u);
  // Moving 817k items off dinadan costs at least n * 1.0e-5 ≈ 8 s before
  // anything else happens, and dinadan's own scatter plan is near-optimal,
  // so dinadan must win.
  EXPECT_EQ(result.best().label, "dinadan");
  EXPECT_DOUBLE_EQ(result.best().staging_time, 0.0);
}

TEST(RootSelection, StagingTimeMatchesLinkCost) {
  auto grid = model::paper_testbed();
  auto result = select_root(grid, 100000);
  int dinadan = grid.machine_index("dinadan");
  for (const auto& candidate : result.candidates) {
    if (candidate.root.machine == dinadan) {
      EXPECT_DOUBLE_EQ(candidate.staging_time, 0.0);
    } else {
      double expected = grid.link(dinadan, candidate.root.machine)(100000);
      EXPECT_DOUBLE_EQ(candidate.staging_time, expected);
      EXPECT_DOUBLE_EQ(candidate.total_time,
                       candidate.staging_time + candidate.scatter_makespan);
    }
  }
}

TEST(RootSelection, FasterRemoteRootCanWin) {
  // The data home (archive) has one fast pipe to a hub but only slow
  // direct links to the workers. Scattering from the archive serializes
  // everything over the slow links; staging once to the hub and
  // scattering from there wins despite the extra transfer.
  model::Grid grid;
  model::Machine archive;
  archive.name = "archive";
  archive.comp = model::Cost::linear(1.0);  // terrible at computing
  int archive_idx = grid.add_machine(archive);
  model::Machine hub;
  hub.name = "hub";
  hub.comp = model::Cost::linear(1e-4);
  int hub_idx = grid.add_machine(hub);
  for (int w = 0; w < 3; ++w) {
    model::Machine worker;
    worker.name = "worker" + std::to_string(w);
    worker.cpu_count = 2;
    worker.comp = model::Cost::linear(1e-4);
    int idx = grid.add_machine(worker);
    grid.set_link(archive_idx, idx, model::Cost::linear(1e-4));  // slow
    grid.set_link(hub_idx, idx, model::Cost::linear(1e-6));      // fast
  }
  grid.set_link(archive_idx, hub_idx, model::Cost::linear(1e-6));  // fast pipe
  for (int a = 2; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) grid.set_link(a, b, model::Cost::linear(1e-6));
  }
  grid.set_data_home(archive_idx);

  auto result = select_root(grid, 1000000);
  EXPECT_EQ(grid.machine(result.best().root.machine).name, "hub");
  EXPECT_GT(result.best().staging_time, 0.0);
}

TEST(RootSelection, PaperConfigSkipsRootsWithUnmeasuredLinks) {
  // The shipped config only measured links from dinadan (the data home),
  // so every other root would need a link it does not define.
  std::ifstream file(LBS_EXAMPLE_GRIDS_DIR "/paper_testbed.conf");
  ASSERT_TRUE(file) << "missing examples/grids/paper_testbed.conf";
  std::ostringstream text;
  text << file.rdbuf();
  auto parsed = model::parse_grid(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  auto result = select_root(*parsed.grid, model::kPaperRayCount);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.best().label, "dinadan");
  EXPECT_DOUBLE_EQ(result.best().staging_time, 0.0);
}

TEST(RootSelection, NoFullyLinkedCandidateThrows) {
  model::Grid grid;
  model::Machine m;
  m.comp = model::Cost::linear(1.0);
  m.name = "home";
  int home = grid.add_machine(m);
  m.name = "island";
  grid.add_machine(m);
  grid.set_data_home(home);
  EXPECT_THROW(select_root(grid, 10), lbs::Error);
}

TEST(RootSelection, RequiresDataHome) {
  model::Grid grid;
  model::Machine m;
  m.name = "lonely";
  m.comp = model::Cost::linear(1.0);
  grid.add_machine(m);
  EXPECT_THROW(select_root(grid, 10), lbs::Error);
}

}  // namespace
}  // namespace lbs::core
