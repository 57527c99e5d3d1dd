// Fast-path routing and bit-identity properties at the planner API level.
//
// Two families of randomized sweeps:
//
// 1. Affine platforms never pay for a DP. Algorithm::Auto must route every
//    all-affine platform to a path independent of n — the closed form when
//    costs are linear, the LP heuristic otherwise — and the plan must carry
//    the Eq. 4 certificate: predicted_makespan is within optimality_gap of
//    the exact-DP optimum, verified here against a real exact_dp solve.
//
// 2. The DP engine is deterministic by construction: the chunk grid is
//    fixed and every chunk is a pure function of its inputs, so thread
//    count, the AVX2 kernel, and a shrunk table budget (forcing
//    divide&conquer into deep recursion) must all reproduce the serial
//    distribution AND makespan bit-for-bit — EXPECT_EQ on the doubles, not
//    a tolerance.
//
// 3. Algorithm 2's piece-wise window-minimum kernel against the paper's
//    classic downward scan, copied below as the reference: on chunked,
//    tabulated and scaled Tcomm and on perfbench plan_dp's Table 1 shapes,
//    every thread count and table budget returns the scan's counts and
//    cost bits. Crafted near-ties may move a share; the makespan must then
//    still match to 1e-12 relative. The piece-wise row fill must equal
//    Cost::at bit for bit for every cost kind.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/dp.hpp"
#include "core/ordering.hpp"
#include "core/planner.hpp"
#include "model/testbed.hpp"
#include "support/rng.hpp"

namespace lbs::core {
namespace {

// Random affine platform; `linear` zeroes every fixed term so Auto takes
// the closed-form route instead of the LP heuristic.
model::Platform random_affine_platform(support::Rng& rng, int p, bool linear) {
  model::Platform platform;
  for (int i = 0; i < p; ++i) {
    model::Processor proc;
    proc.label = "P" + std::to_string(i);
    bool is_root = i + 1 == p;
    double comm_fixed = linear ? 0.0 : rng.uniform(1e-5, 5e-3);
    double comp_fixed = linear ? 0.0 : rng.uniform(1e-5, 5e-3);
    proc.comm = is_root ? model::Cost::zero()
              : linear  ? model::Cost::linear(rng.uniform(1e-4, 2e-2))
                        : model::Cost::affine(comm_fixed, rng.uniform(1e-4, 2e-2));
    proc.comp = linear ? model::Cost::linear(rng.uniform(1e-3, 5e-2))
                       : model::Cost::affine(comp_fixed, rng.uniform(1e-3, 5e-2));
    platform.processors.push_back(proc);
  }
  return platform;
}

// Random increasing-but-not-affine platform: chunked communication costs
// give Algorithm 2's kernel many pieces per column instead of one.
model::Platform random_chunked_platform(support::Rng& rng, int p, long long n) {
  model::Platform platform;
  for (int i = 0; i < p; ++i) {
    model::Processor proc;
    proc.label = "C" + std::to_string(i);
    bool is_root = i + 1 == p;
    long long chunk = rng.uniform_int(2, std::max<long long>(3, n / 4));
    proc.comm = is_root ? model::Cost::zero()
                        : model::Cost::chunked(rng.uniform(1e-4, 2e-2), chunk,
                                               rng.uniform(1e-4, 1e-2));
    proc.comp = model::Cost::affine(rng.uniform(0.0, 1e-3), rng.uniform(1e-3, 5e-2));
    platform.processors.push_back(proc);
  }
  return platform;
}

class AffineFastPathTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AffineFastPathTest, AutoRoutesAffineToFastPathWithinEq4Bound) {
  support::Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    int p = static_cast<int>(rng.uniform_int(2, 8));
    long long n = rng.uniform_int(1, 1200);
    bool linear = trial % 2 == 0;
    auto platform = random_affine_platform(rng, p, linear);
    ASSERT_TRUE(platform.all_costs_affine());

    ScatterPlan plan = plan_scatter(platform, n);
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial) + " p=" + std::to_string(p) +
                 " n=" + std::to_string(n));

    // Never a DP: affine costs always have a route independent of n.
    EXPECT_NE(plan.algorithm_used, Algorithm::ExactDp);
    EXPECT_NE(plan.algorithm_used, Algorithm::OptimizedDp);
    EXPECT_EQ(plan.algorithm_used,
              linear ? Algorithm::LinearClosedForm : Algorithm::LpHeuristic);

    // The Eq. 4 certificate rides on the plan and is honest: the plan's
    // makespan is within the claimed gap of the true integral optimum.
    ASSERT_TRUE(plan.has_optimality_bound);
    EXPECT_GE(plan.optimality_gap, 0.0);
    auto exact = exact_dp(platform, n);
    EXPECT_LE(plan.predicted_makespan,
              exact.cost + plan.optimality_gap + 1e-9 * (1.0 + exact.cost));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineFastPathTest,
                         ::testing::Values(701u, 702u, 703u, 704u, 705u));

// Runs optimized_dp under `options` and requires a bit-for-bit match with
// the serial reference: same counts, same makespan double.
void expect_bit_identical(const model::Platform& platform, long long n,
                          const DpResult& reference, DpOptions options,
                          const std::string& what) {
  auto variant = optimized_dp(platform, n, options);
  EXPECT_EQ(variant.distribution.counts, reference.distribution.counts) << what;
  EXPECT_EQ(variant.cost, reference.cost) << what;  // exact ==, not NEAR
}

class DpBitIdentityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpBitIdentityTest, EveryVariantReproducesSerialBitForBit) {
  support::Rng rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    int p = static_cast<int>(rng.uniform_int(2, 6));
    long long n = rng.uniform_int(50, 3000);
    bool affine = trial % 2 == 0;
    auto platform = affine ? random_affine_platform(rng, p, /*linear=*/false)
                           : random_chunked_platform(rng, p, n);
    ASSERT_TRUE(platform.all_costs_increasing());
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial) + (affine ? " affine" : " chunked") +
                 " p=" + std::to_string(p) + " n=" + std::to_string(n));

    DpOptions serial;
    serial.threads = 1;
    auto reference = optimized_dp(platform, n, serial);

    for (int threads : {2, 3, 8}) {
      DpOptions opts;
      opts.threads = threads;
      expect_bit_identical(platform, n, reference, opts,
                           "threads=" + std::to_string(threads));
    }
    DpOptions dc;
    dc.dc_table_bytes = 1;  // force recursion all the way down
    expect_bit_identical(platform, n, reference, dc, "divide&conquer deep");
    dc.threads = 3;
    expect_bit_identical(platform, n, reference, dc, "divide&conquer deep, 3 threads");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpBitIdentityTest,
                         ::testing::Values(811u, 812u, 813u));

TEST(DpBitIdentity, ExactDpSimdAndThreadsMatchScalarSerial) {
  support::Rng rng(4242);
  for (int trial = 0; trial < 2; ++trial) {
    int p = static_cast<int>(rng.uniform_int(2, 6));
    long long n = rng.uniform_int(50, 800);
    auto platform = random_affine_platform(rng, p, /*linear=*/false);
    SCOPED_TRACE("trial " + std::to_string(trial) + " p=" + std::to_string(p) +
                 " n=" + std::to_string(n));

    DpOptions scalar_serial;
    scalar_serial.threads = 1;
    scalar_serial.allow_simd = false;
    auto reference = exact_dp(platform, n, scalar_serial);

    for (bool simd : {false, true}) {
      for (int threads : {1, 3}) {
        DpOptions opts;
        opts.threads = threads;
        opts.allow_simd = simd;
        auto variant = exact_dp(platform, n, opts);
        EXPECT_EQ(variant.distribution.counts, reference.distribution.counts)
            << "simd=" << simd << " threads=" << threads;
        EXPECT_EQ(variant.cost, reference.cost)
            << "simd=" << simd << " threads=" << threads;
      }
    }
  }
}

TEST(DpBitIdentity, AffineStackKernelMatchesAcrossChunkBoundaries) {
  // n beyond one scheduling chunk, so parallel runs rebuild the kernel's
  // monotone stack per chunk — the rebuilt prefix must select
  // exactly the cells the single serial stack selects.
  support::Rng rng(5151);
  auto platform = random_affine_platform(rng, 5, /*linear=*/false);
  const long long n = 100'001;

  DpOptions serial;
  serial.threads = 1;
  auto reference = optimized_dp(platform, n, serial);

  DpOptions parallel;
  parallel.threads = 3;
  expect_bit_identical(platform, n, reference, parallel, "3 threads");

  DpOptions dc;
  dc.dc_table_bytes = 1 << 20;
  expect_bit_identical(platform, n, reference, dc, "divide&conquer 1 MiB budget");
}

// ---------------------------------------------------------------------------
// Reference Algorithm 2: the paper's lines 16-35 as the classic scan ran
// them, a serial full-table DP with no fast path.

long long reference_crossover(const double* comp, const double* down, long long d) {
  if (comp[0] >= down[d]) return 0;
  if (comp[d] < down[0]) return d + 1;
  long long e_min = 0;
  long long e_max = d;
  long long e = d / 2;
  while (e != e_min) {
    if (comp[e] < down[d - e]) {
      e_min = e;
    } else {
      e_max = e;
    }
    e = (e_min + e_max) / 2;
  }
  return e_max;
}

// Candidate at the crossover (or the all-items degenerate when there is
// none), then the downward scan with early break.
std::pair<double, long long> reference_cell(const double* comm, const double* comp,
                                            const double* down, long long d) {
  const long long estar = reference_crossover(comp, down, d);
  long long sol = d;
  double min_cost = comm[d] + down[0];
  if (estar <= d) {
    sol = estar;
    min_cost = comm[estar] + comp[estar];
  }
  for (long long e = sol - 1; e >= 0; --e) {
    const double dn = down[d - e];
    const double m = comm[e] + dn;
    if (m < min_cost) {
      min_cost = m;
      sol = e;
    } else if (dn >= min_cost) {
      break;
    }
  }
  return {min_cost, sol};
}

DpResult reference_optimized_dp(const model::Platform& platform, long long n) {
  const int p = platform.size();
  const auto width = static_cast<std::size_t>(n) + 1;
  std::vector<double> comm(width);
  std::vector<double> comp(width);
  std::vector<double> down(width);
  std::vector<double> next(width);
  std::vector<std::vector<long long>> choice(static_cast<std::size_t>(p - 1),
                                             std::vector<long long>(width));
  for (long long e = 0; e <= n; ++e) {
    down[static_cast<std::size_t>(e)] = platform[p - 1].comm(e) + platform[p - 1].comp(e);
  }
  for (int i = p - 2; i >= 0; --i) {
    for (long long e = 0; e <= n; ++e) {
      comm[static_cast<std::size_t>(e)] = platform[i].comm(e);
      comp[static_cast<std::size_t>(e)] = platform[i].comp(e);
    }
    next[0] = 0.0;
    for (long long d = 1; d <= n; ++d) {
      auto [cost, sol] = reference_cell(comm.data(), comp.data(), down.data(), d);
      next[static_cast<std::size_t>(d)] = cost;
      choice[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] = sol;
    }
    std::swap(down, next);
  }
  DpResult result;
  result.cost = down[static_cast<std::size_t>(n)];
  result.distribution.counts.assign(static_cast<std::size_t>(p), 0);
  long long remaining = n;
  for (int i = 0; i + 1 < p; ++i) {
    const long long share =
        choice[static_cast<std::size_t>(i)][static_cast<std::size_t>(remaining)];
    result.distribution.counts[static_cast<std::size_t>(i)] = share;
    remaining -= share;
  }
  result.distribution.counts[static_cast<std::size_t>(p - 1)] = remaining;
  return result;
}

// Every thread count and table budget against the scan: equal counts,
// equal cost bits.
void expect_matches_scan(const model::Platform& platform, long long n,
                         const std::string& what) {
  ASSERT_TRUE(platform.all_costs_increasing()) << what;
  const DpResult reference = reference_optimized_dp(platform, n);
  struct Variant {
    const char* name;
    int threads;
    std::size_t table_bytes;
  };
  for (const Variant& v : {Variant{"serial", 1, 0}, Variant{"3 threads", 3, 0},
                           Variant{"pooled", 0, 0}, Variant{"1-byte budget", 1, 1},
                           Variant{"1-byte budget, pooled", 0, 1}}) {
    DpOptions options;
    options.threads = v.threads;
    options.dc_table_bytes = v.table_bytes;
    const DpResult got = optimized_dp(platform, n, options);
    EXPECT_EQ(got.distribution.counts, reference.distribution.counts) << what << ", " << v.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cost),
              std::bit_cast<std::uint64_t>(reference.cost))
        << what << ", " << v.name << ": " << got.cost << " vs " << reference.cost;
  }
}

// Increasing samples over [1, reach]: 1-40 of them, some segments flat,
// so the cost past `reach` runs on the extrapolated tail.
std::vector<std::pair<long long, double>> random_samples(support::Rng& rng, long long reach,
                                                         double slope) {
  const auto count = std::min<long long>(rng.uniform_int(1, 40), reach);
  std::vector<long long> xs;
  for (long long j = 1; j <= count; ++j) xs.push_back(reach * j / count);
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::vector<std::pair<long long, double>> samples;
  double y = 0.0;
  long long prev = 0;
  for (long long x : xs) {
    if (rng.uniform() >= 0.25 || samples.empty()) {
      y += slope * static_cast<double>(x - prev) * rng.uniform(0.2, 3.0);
    }
    samples.emplace_back(x, y);
    prev = x;
  }
  return samples;
}

// Chunks of one item, of a few items on either side of the kernel's
// 8-item jump threshold, or of anything up to n.
model::Cost random_chunked(support::Rng& rng, long long n) {
  const double pick = rng.uniform();
  const long long chunk = pick < 0.2 ? 1 : pick < 0.5 ? rng.uniform_int(2, 16) : rng.uniform_int(1, n);
  return model::Cost::chunked(rng.uniform(1e-4, 2e-2), chunk, rng.uniform(0.0, 1e-2));
}

model::Cost random_tabulated(support::Rng& rng, long long n) {
  const long long reach = rng.uniform_int(1, n + n / 2);
  return model::Cost::tabulated(random_samples(rng, reach, rng.uniform(1e-4, 2e-2)));
}

model::Cost random_scaled(support::Rng& rng, long long n) {
  model::Cost inner;
  switch (rng.uniform_int(0, 2)) {
    case 0: inner = random_chunked(rng, n); break;
    case 1: inner = random_tabulated(rng, n); break;
    default: inner = model::Cost::affine(rng.uniform(0.0, 1e-3), rng.uniform(1e-4, 2e-2));
  }
  return model::Cost::scaled(inner, rng.uniform(0.3, 3.0));
}

// Tcomp: affine or tabulated, so the crossover also walks kinks.
model::Cost random_comp(support::Rng& rng, long long n) {
  if (rng.uniform() < 0.5) {
    return model::Cost::affine(rng.uniform(0.0, 1e-3), rng.uniform(1e-3, 5e-2));
  }
  return model::Cost::tabulated(random_samples(rng, n, rng.uniform(1e-3, 5e-2)));
}

enum class CommFamily { Chunked, Tabulated, Scaled };

model::Platform random_alg2_platform(support::Rng& rng, int p, long long n,
                                     CommFamily family) {
  model::Platform platform;
  for (int i = 0; i < p; ++i) {
    model::Processor proc;
    proc.label = "Q" + std::to_string(i);
    if (i + 1 == p) {
      proc.comm = model::Cost::zero();
    } else if (family == CommFamily::Chunked) {
      proc.comm = random_chunked(rng, n);
    } else if (family == CommFamily::Tabulated) {
      proc.comm = random_tabulated(rng, n);
    } else {
      proc.comm = random_scaled(rng, n);
    }
    proc.comp = random_comp(rng, n);
    platform.processors.push_back(proc);
  }
  return platform;
}

class Alg2KernelVsScanTest
    : public ::testing::TestWithParam<std::tuple<CommFamily, std::uint64_t>> {};

TEST_P(Alg2KernelVsScanTest, EveryVariantReturnsTheScansCountsAndBits) {
  const auto [family, seed] = GetParam();
  support::Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    const int p = static_cast<int>(rng.uniform_int(2, 7));
    const long long n = rng.uniform_int(1, 2500);
    const model::Platform platform = random_alg2_platform(rng, p, n, family);
    expect_matches_scan(platform, n,
                        "seed " + std::to_string(seed) + " trial " + std::to_string(trial) +
                            " p=" + std::to_string(p) + " n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, Alg2KernelVsScanTest,
    ::testing::Combine(::testing::Values(CommFamily::Chunked, CommFamily::Tabulated,
                                         CommFamily::Scaled),
                       ::testing::Values(901u, 902u, 903u)));

// Only the cells on the optimal path reach a solve's counts and cost, so
// a kernel fault elsewhere in a column goes unseen. With p = 2 the
// result at n is the chooser's cell (n, 0) itself, and with p = 3 one
// cell of each column: solving every n from 1 up checks every cell of
// those columns against the scan.
TEST_P(Alg2KernelVsScanTest, EveryCellOfTwoAndThreeProcessorPlatforms) {
  const auto [family, seed] = GetParam();
  support::Rng rng(seed + 100);
  for (int p : {2, 3}) {
    const long long top = 240;
    const model::Platform platform = random_alg2_platform(rng, p, top, family);
    for (long long n = 1; n <= top; ++n) {
      const DpResult reference = reference_optimized_dp(platform, n);
      DpOptions options;
      options.threads = 1;
      const DpResult got = optimized_dp(platform, n, options);
      ASSERT_EQ(got.distribution.counts, reference.distribution.counts)
          << "seed " << seed << " p=" << p << " n=" << n;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.cost),
                std::bit_cast<std::uint64_t>(reference.cost))
          << "seed " << seed << " p=" << p << " n=" << n;
    }
  }
}

// perfbench plan_dp's inputs: the Table 1 testbed in descending-bandwidth
// order, every slope perturbed by up to 5%, Tcomp tabulated from six
// calibration-like samples, Tcomm chunked (even ranks) or tabulated.
std::vector<std::pair<long long, double>> calibration_samples(support::Rng& rng,
                                                              double slope, long long n) {
  std::vector<std::pair<long long, double>> samples;
  for (int j = 1; j <= 6; ++j) {
    const long long x = n * j / 6;
    const double bend = 1.0 + 0.04 * j / 6.0 + rng.uniform(-0.01, 0.01);
    samples.emplace_back(x, slope * static_cast<double>(x) * bend);
  }
  return samples;
}

model::Platform table1_shaped(support::Rng& rng, long long n) {
  const model::Grid grid = model::paper_testbed();
  model::Platform platform =
      ordered_platform(grid, model::paper_root(grid), OrderingPolicy::DescendingBandwidth);
  const int root = platform.size() - 1;
  for (int i = 0; i < platform.size(); ++i) {
    model::Processor& proc = platform.processors[static_cast<std::size_t>(i)];
    const double alpha = proc.comp.per_item_slope() * rng.uniform(0.95, 1.05);
    proc.comp = model::Cost::tabulated(calibration_samples(rng, alpha, n));
    if (i == root) continue;
    const double beta = proc.comm.per_item_slope() * rng.uniform(0.95, 1.05);
    if (i % 2 == 0) {
      const long long chunk = rng.uniform_int(n / 50, n / 12);
      proc.comm = model::Cost::chunked(beta, chunk, 0.25 * beta * static_cast<double>(chunk));
    } else {
      proc.comm = model::Cost::tabulated(calibration_samples(rng, beta, n));
    }
  }
  return platform;
}

// n past one and past three 32768-cell wavefront chunks, so chunks seed
// their own stacks mid-column.
TEST(Alg2KernelVsScan, Table1ShapesAcrossChunkBoundaries) {
  support::Rng rng(1);
  for (long long n : {33'000LL, 100'000LL}) {
    const model::Platform platform = table1_shaped(rng, n);
    expect_matches_scan(platform, n, "Table 1 shapes, n=" + std::to_string(n));
  }
}

// Crafted near-ties: the downstream column is exactly linear with Tcomm's
// own slope, so every scanned candidate ties in exact arithmetic and only
// rounding separates them. v-space and the scan may then pick different
// shares; report any that moves, and require the makespan to 1e-12
// relative, the standard the affine-only stack kernel was held to.
TEST(Alg2KernelVsScan, CraftedNearTiesKeepTheMakespan) {
  support::Rng rng(77);
  int moved = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const long long n = rng.uniform_int(50, 3000);
    const double slope = rng.uniform(1e-4, 1e-1);
    model::Processor chooser;
    chooser.label = "chooser";
    switch (trial % 3) {
      case 0: chooser.comm = model::Cost::linear(slope); break;
      case 1:
        chooser.comm = model::Cost::tabulated({{n / 3 + 1, slope * static_cast<double>(n / 3 + 1)},
                                               {n, slope * static_cast<double>(n)}});
        break;
      default: chooser.comm = model::Cost::chunked(slope, rng.uniform_int(1, n), 0.0);
    }
    chooser.comp = model::Cost::linear(slope * rng.uniform(2.0, 50.0));
    model::Processor root;
    root.label = "root";
    root.comm = model::Cost::zero();
    root.comp = model::Cost::linear(slope);
    model::Platform platform;
    platform.processors = {chooser, root};

    const DpResult reference = reference_optimized_dp(platform, n);
    for (int threads : {1, 3}) {
      DpOptions options;
      options.threads = threads;
      const DpResult got = optimized_dp(platform, n, options);
      if (got.distribution.counts != reference.distribution.counts) {
        ++moved;
        std::cout << "near-tie trial " << trial << " n=" << n << " threads=" << threads
                  << ": share " << got.distribution.counts[0] << " vs the scan's "
                  << reference.distribution.counts[0] << "\n";
      }
      EXPECT_NEAR(got.cost, reference.cost, 1e-12 * reference.cost) << "trial " << trial;
    }
  }
  std::cout << "crafted near-ties: " << moved << " of 48 solves moved a share\n";
}

// Cost::at is one value of Cost::fill, so a row filled from any first
// item must equal the values filled one at a time, bit for bit, for every
// kind. The pieces must tile 1..n (each item's piece the same as its
// piece's first item's), and at() must rise by the piece's slope inside a
// block and by no less across a block boundary.
TEST(CostPieces, FillFromAnyFirstItemAndPiecesTileTheRange) {
  support::Rng rng(31);
  const long long n = 600;
  std::vector<std::pair<std::string, model::Cost>> costs = {
      {"zero", model::Cost::zero()},
      {"linear", model::Cost::linear(3e-3)},
      {"affine", model::Cost::affine(2e-2, 3e-3)},
      {"chunked chunk=1", model::Cost::chunked(1e-3, 1, 5e-3)},
      {"chunked chunk=7", model::Cost::chunked(1e-3, 7, 5e-3)},
      {"chunked chunk>n", model::Cost::chunked(1e-3, 5000, 5e-3)},
      {"chunked step=0", model::Cost::chunked(1e-3, 7, 0.0)},
      {"tabulated 1 sample", model::Cost::tabulated({{37, 0.11}})},
      {"tabulated flat and tail", model::Cost::tabulated({{10, 0.5}, {20, 0.5}, {90, 1.7}})},
  };
  for (int k = 0; k < 6; ++k) {
    costs.emplace_back("random tabulated " + std::to_string(k), random_tabulated(rng, n));
    costs.emplace_back("random chunked " + std::to_string(k), random_chunked(rng, n));
  }
  const std::size_t base = costs.size();
  for (std::size_t k = 0; k < base; ++k) {
    costs.emplace_back("scaled " + costs[k].first,
                       model::Cost::scaled(costs[k].second, rng.uniform(0.3, 3.0)));
  }
  for (const auto& [name, cost] : costs) {
    for (long long first : {0LL, 1LL, 5LL, 37LL, 38LL, 250LL}) {
      std::vector<double> row(static_cast<std::size_t>(n + 1 - first));
      cost.fill(first, row);
      for (std::size_t j = 0; j < row.size(); ++j) {
        const long long x = first + static_cast<long long>(j);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row[j]), std::bit_cast<std::uint64_t>(cost.at(x)))
            << name << " x=" << x << " first=" << first;
      }
    }
    long long begin = 1;
    while (begin <= n) {
      const model::CostPiece piece = cost.piece(begin);
      EXPECT_EQ(piece.begin, begin) << name;
      ASSERT_LT(piece.begin, piece.end) << name;
      EXPECT_GE(piece.period, 0) << name;
      for (long long x = piece.begin; x < piece.end && x <= n; ++x) {
        const model::CostPiece here = cost.piece(x);
        EXPECT_EQ(here.begin, piece.begin) << name << " x=" << x;
        EXPECT_EQ(here.end, piece.end) << name << " x=" << x;
        const double rise = cost.at(x + 1) - cost.at(x);
        const double tolerance = 1e-12 * (1.0 + cost.at(x + 1));
        if (x + 1 == piece.end) continue;
        if (piece.period == 0 || (x + 1) % piece.period != 0) {
          EXPECT_NEAR(rise, piece.slope, tolerance) << name << " x=" << x;
        } else {
          EXPECT_GE(rise, piece.slope - tolerance) << name << " block at x=" << x + 1;
        }
      }
      begin = piece.end;
    }
  }
  const model::CostPiece chunked = model::Cost::chunked(1e-3, 7, 5e-3).piece(n);
  EXPECT_EQ(chunked.begin, 1);
  EXPECT_EQ(chunked.period, 7);
  EXPECT_EQ(model::Cost::chunked(1e-3, 7, 0.0).piece(1).period, 0);
  EXPECT_EQ(model::Cost::affine(1.0, 2.0).piece(n).begin, 1);
  const model::Cost tabulated = model::Cost::tabulated({{10, 0.5}, {20, 0.5}, {90, 1.7}});
  EXPECT_EQ(tabulated.piece(10).end, 11);
  EXPECT_EQ(tabulated.piece(11).begin, 11);
  EXPECT_EQ(tabulated.piece(11).slope, 0.0);
  EXPECT_EQ(tabulated.piece(91).begin, 91);
  EXPECT_EQ(tabulated.piece(n).end, model::CostPiece::kUnbounded);
}

}  // namespace
}  // namespace lbs::core
