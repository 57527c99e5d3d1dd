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
//    count, the AVX2 kernel, the affine monotone-stack kernel, and a shrunk
//    table budget (forcing divide&conquer into deep recursion) must all
//    reproduce the serial distribution AND makespan bit-for-bit — EXPECT_EQ
//    on the doubles, not a tolerance.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dp.hpp"
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
// exercise the classic downward-scan kernel instead of the affine stack.
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
  // n beyond one scheduling chunk, so parallel runs rebuild the affine
  // kernel's monotone stack per chunk — the rebuilt prefix must select
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

}  // namespace
}  // namespace lbs::core
