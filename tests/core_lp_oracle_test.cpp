// Differential tests for the affine route. core::lp_heuristic solves LP (3)
// by its chain structure; the dense simplex in lp/ is its oracle, fed the
// same LP that lp_heuristic built before the chain solve. round_distribution
// takes its picks from two sorted orders; the O(p^2) scan it replaced is
// its reference, and the counts must match exactly.
#include "core/heuristic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/closed_form.hpp"
#include "core/rounding.hpp"
#include "lp/simplex.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace lbs::core {
namespace {

struct LpSolution {
  std::vector<double> shares;
  double makespan = 0.0;
};

// LP (3) through the dense two-phase simplex. Variables: x_0..x_{p-1} =
// n_i, x_p = T. Minimize T.
LpSolution simplex_lp(const model::Platform& platform, long long items) {
  int p = platform.size();
  std::vector<model::AffineCoeffs> comm(static_cast<std::size_t>(p));
  std::vector<model::AffineCoeffs> comp(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    comm[static_cast<std::size_t>(i)] = *platform[i].comm.affine();
    comp[static_cast<std::size_t>(i)] = *platform[i].comp.affine();
  }

  lp::Problem problem;
  std::vector<double> objective(static_cast<std::size_t>(p) + 1, 0.0);
  objective.back() = 1.0;
  problem.minimize(std::move(objective));

  {
    std::vector<double> coeffs(static_cast<std::size_t>(p) + 1, 0.0);
    for (int i = 0; i < p; ++i) coeffs[static_cast<std::size_t>(i)] = 1.0;
    problem.add(std::move(coeffs), lp::Relation::Equal, static_cast<double>(items));
  }

  // For each i: sum_{j<=i} β_j n_j + α_i n_i - T <= -(sum_{j<=i} b_j + c_i),
  // where Tcomm(j,x) = b_j + β_j x and Tcomp(i,x) = c_i + α_i x.
  double fixed_comm_prefix = 0.0;
  for (int i = 0; i < p; ++i) {
    fixed_comm_prefix += comm[static_cast<std::size_t>(i)].fixed;
    std::vector<double> coeffs(static_cast<std::size_t>(p) + 1, 0.0);
    for (int j = 0; j <= i; ++j) {
      coeffs[static_cast<std::size_t>(j)] = comm[static_cast<std::size_t>(j)].per_item;
    }
    coeffs[static_cast<std::size_t>(i)] += comp[static_cast<std::size_t>(i)].per_item;
    coeffs.back() = -1.0;
    double rhs = -(fixed_comm_prefix + comp[static_cast<std::size_t>(i)].fixed);
    problem.add(std::move(coeffs), lp::Relation::LessEq, rhs);
  }

  auto solution = lp::solve(problem);
  LBS_CHECK_MSG(solution.optimal(),
                "scatter LP not optimal: " + lp::to_string(solution.status));
  return {std::vector<double>(solution.x.begin(), solution.x.end() - 1),
          solution.objective};
}

// The Section 3.3 scheme as one scan over the undone shares per pick.
Distribution scan_round(std::span<const double> shares, long long items) {
  LBS_CHECK_MSG(!shares.empty(), "rounding an empty distribution");
  LBS_CHECK(items >= 0);
  double total = 0.0;
  for (double share : shares) {
    LBS_CHECK_MSG(share >= -1e-9, "negative rational share");
    total += share;
  }
  LBS_CHECK_MSG(std::abs(total - static_cast<double>(items)) < 0.5,
                "rational shares do not sum to n");

  std::size_t p = shares.size();
  Distribution result;
  result.counts.assign(p, 0);
  std::vector<bool> done(p, false);

  double error = 0.0;
  for (std::size_t step = 0; step + 1 < p; ++step) {
    std::size_t best = p;
    double best_distance = std::numeric_limits<double>::infinity();
    double best_value = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      if (done[i]) continue;
      double share = std::max(shares[i], 0.0);
      double target;
      if (error < 0.0) {
        target = std::ceil(share);
      } else if (error > 0.0) {
        target = std::floor(share);
      } else {
        target = std::round(share);
      }
      double distance = std::abs(target - share);
      if (distance < best_distance) {
        best_distance = distance;
        best = i;
        best_value = target;
      }
    }
    LBS_CHECK(best < p);
    done[best] = true;
    result.counts[best] = static_cast<long long>(best_value);
    error += best_value - shares[best];
  }

  std::size_t last = p;
  for (std::size_t i = 0; i < p; ++i) {
    if (!done[i]) last = i;
  }
  LBS_CHECK(last < p);
  long long assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    if (i != last) assigned += result.counts[i];
  }
  long long remainder = items - assigned;
  LBS_CHECK_MSG(remainder >= 0, "rounding produced a negative share");
  LBS_CHECK_MSG(std::abs(static_cast<double>(remainder) - shares[last]) < 1.0 + 1e-6,
                "rounding drifted more than one item");
  result.counts[last] = remainder;
  return result;
}

double log_uniform(support::Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.uniform());
}

// What a random platform is made of. Every probability is per processor.
struct Mix {
  double beta_lo = 3e-5;
  double beta_hi = 3e-3;
  double comm_fixed = 5e-3;
  double comp_fixed = 20e-3;
  double zero_fixed = 0.0;         // each fixed term zero
  double zero_link_slope = 0.0;    // non-root β_i = 0
  double zero_compute_slope = 0.0;  // α_i = 0
  double free = 0.0;               // both costs Cost::zero()
  double tie = 0.0;                // the previous processor's costs again
  bool theorem3_order = true;      // ascending β, root last; else shuffled
};

model::Platform random_platform(support::Rng& rng, int processors, const Mix& mix) {
  model::Platform platform;
  for (int i = 0; i < processors; ++i) {
    const bool root = i + 1 == processors;
    double b = rng.bernoulli(mix.zero_fixed) ? 0.0 : rng.uniform(0.0, mix.comm_fixed);
    double c = rng.bernoulli(mix.zero_fixed) ? 0.0 : rng.uniform(0.0, mix.comp_fixed);
    double beta = log_uniform(rng, mix.beta_lo, mix.beta_hi);
    double alpha = log_uniform(rng, 1e-3, 3e-2);
    if (!root && rng.bernoulli(mix.zero_link_slope)) beta = 0.0;
    if (rng.bernoulli(mix.zero_compute_slope)) alpha = 0.0;
    model::Processor proc;
    proc.label = "P" + std::to_string(i);
    proc.comm = root ? model::Cost::zero() : model::Cost::affine(b, beta);
    proc.comp = model::Cost::affine(c, alpha);
    if (rng.bernoulli(mix.free)) {
      proc.comm = model::Cost::zero();
      proc.comp = model::Cost::zero();
    }
    if (i > 0 && !root && rng.bernoulli(mix.tie)) {
      proc.comm = platform.processors.back().comm;
      proc.comp = platform.processors.back().comp;
    }
    platform.processors.push_back(std::move(proc));
  }
  auto workers_end = platform.processors.end() - 1;
  if (mix.theorem3_order) {
    std::stable_sort(platform.processors.begin(), workers_end,
                     [](const model::Processor& a, const model::Processor& b) {
                       return a.comm.per_item_slope() < b.comm.per_item_slope();
                     });
  } else {
    std::shuffle(platform.processors.begin(), platform.processors.end(), rng);
  }
  return platform;
}

double tolerance(double value) { return 1e-9 * std::abs(value) + 1e-15; }

// The chain solve's shares are a feasible point of LP (3) at its T: every
// row holds, the shares are non-negative and they sum to n.
void expect_feasible(const model::Platform& platform, long long items,
                     const HeuristicResult& result, const std::string& context) {
  const auto p = static_cast<std::size_t>(platform.size());
  ASSERT_EQ(result.rational_shares.size(), p) << context;
  const double makespan = result.rational_makespan;
  double port = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const double share = result.rational_shares[i];
    const auto comm = *platform[static_cast<int>(i)].comm.affine();
    const auto comp = *platform[static_cast<int>(i)].comp.affine();
    EXPECT_GE(share, 0.0) << context << " share " << i;
    port += comm.fixed + comm.per_item * share;
    const double row = port + comp.fixed + comp.per_item * share;
    EXPECT_LE(row, makespan + tolerance(makespan)) << context << " row " << i;
    total += share;
  }
  const auto n = static_cast<double>(items);
  EXPECT_LE(std::abs(total - n), 1e-9 * n) << context << " sum of shares";
  EXPECT_EQ(result.distribution.total(), items) << context;
}

// The makespan `shares` need: the largest left side of LP (3)'s rows.
double needed_makespan(const model::Platform& platform, std::span<const double> shares) {
  double port = 0.0;
  double needed = 0.0;
  for (int i = 0; i < platform.size(); ++i) {
    const auto comm = *platform[i].comm.affine();
    const auto comp = *platform[i].comp.affine();
    const double share = shares[static_cast<std::size_t>(i)];
    port += comm.fixed + comm.per_item * share;
    needed = std::max(needed, port + comp.fixed + comp.per_item * share);
  }
  return needed;
}

// The chain's T within 1e-9 relative of LP (3)'s optimum. expect_feasible
// bounds it from below: its shares meet every row at T. The simplex bounds
// it from above: T may not exceed the makespan the simplex's shares need,
// nor the simplex's objective where that is larger. The double simplex is
// not exact, so a T below its objective is fine when the chain's shares
// prove it: on 3 of some 7,000 random platforms with n <= 10^6, drawn as
// below with other seeds, it stopped up to 5e-9 relative above a feasible
// T. At n = INT32_MAX it misses its own LP by far more: its rows run over
// its objective and its shares miss n by whole items, and then it bounds
// nothing.
void expect_matches_simplex(const model::Platform& platform, long long items,
                            const std::string& context) {
  HeuristicResult chain = lp_heuristic(platform, items);
  LpSolution oracle = simplex_lp(platform, items);
  expect_feasible(platform, items, chain, context);
  const auto n = static_cast<double>(items);
  const double missing =
      std::abs(std::accumulate(oracle.shares.begin(), oracle.shares.end(), 0.0) - n);
  if (missing > 1e-9 * n) {
    EXPECT_EQ(items, INT32_MAX) << context << ": the simplex's shares miss n";
    return;
  }
  const double bound = std::max(oracle.makespan, needed_makespan(platform, oracle.shares));
  EXPECT_LE(chain.rational_makespan, bound + tolerance(bound)) << context;
}

long long random_items(support::Rng& rng) {
  switch (rng.uniform_int(0, 6)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2;
    case 3: return rng.uniform_int(3, 100);
    case 4: return 1'000'000;
    case 5: return INT32_MAX;
    default: return rng.uniform_int(0, 100'000);
  }
}

Mix random_mix(support::Rng& rng) {
  Mix mix;
  switch (rng.uniform_int(0, 8)) {
    case 0: break;  // fixed terms everywhere, nothing zero
    case 1: mix.zero_fixed = 1.0; break;  // linear costs
    case 2: mix.zero_link_slope = 0.3; break;
    case 3: mix.zero_compute_slope = 0.3; break;
    case 4: mix.free = 0.15; break;
    case 5: mix.tie = 0.5; break;
    case 6:  // links slow against compute: Theorem 2 drops processors
      mix.beta_lo = 1e-3;
      mix.beta_hi = 1.0;
      break;
    case 7:  // large compute fixed terms: rows bind at zero shares
      mix.comp_fixed = 5.0;
      break;
    default:  // a bit of everything
      mix.zero_fixed = 0.3;
      mix.zero_link_slope = 0.1;
      mix.zero_compute_slope = 0.1;
      mix.free = 0.05;
      mix.tie = 0.2;
      break;
  }
  mix.theorem3_order = rng.bernoulli(0.5);
  return mix;
}

TEST(ChainLp, MatchesSimplexOnSmallRandomPlatforms) {
  support::Rng rng(2311);
  for (int trial = 0; trial < 600; ++trial) {
    const int p = static_cast<int>(rng.uniform_int(1, 16));
    const Mix mix = random_mix(rng);
    const long long items = random_items(rng);
    const auto platform = random_platform(rng, p, mix);
    expect_matches_simplex(platform, items,
                           "trial " + std::to_string(trial) + " p=" + std::to_string(p) +
                               " n=" + std::to_string(items));
  }
}

TEST(ChainLp, MatchesSimplexUpToTwoHundredFiftySixProcessors) {
  support::Rng rng(4409);
  for (int trial = 0; trial < 40; ++trial) {
    const int p = trial < 36 ? static_cast<int>(rng.uniform_int(17, 128))
                             : static_cast<int>(rng.uniform_int(129, 256));
    const Mix mix = random_mix(rng);
    const long long items = random_items(rng);
    const auto platform = random_platform(rng, p, mix);
    expect_matches_simplex(platform, items,
                           "trial " + std::to_string(trial) + " p=" + std::to_string(p) +
                               " n=" + std::to_string(items));
  }
}

TEST(ChainLp, SmallItemCountsUnderLargeFixedTerms) {
  support::Rng rng(61);
  for (int trial = 0; trial < 100; ++trial) {
    Mix mix;
    mix.comm_fixed = 1.0;
    mix.comp_fixed = 2.0;
    mix.theorem3_order = rng.bernoulli(0.5);
    const int p = static_cast<int>(rng.uniform_int(1, 24));
    const long long items = rng.uniform_int(0, 12);
    expect_matches_simplex(random_platform(rng, p, mix), items,
                           "trial " + std::to_string(trial) + " p=" + std::to_string(p) +
                               " n=" + std::to_string(items));
  }
}

// Built so the answer is known: a worker whose compute fixed term exceeds
// the whole plan sets T at its zero-share row, and a worker behind links
// slower than the root's own compute is dropped by Theorem 2.
TEST(ChainLp, ZeroShareRowBindsAndSlowLinkIsDropped) {
  model::Platform platform;
  auto add = [&platform](double b, double beta, double c, double alpha) {
    model::Processor proc;
    proc.comm = model::Cost::affine(b, beta);
    proc.comp = model::Cost::affine(c, alpha);
    platform.processors.push_back(proc);
  };
  add(0.0, 1e-3, 50.0, 1e-3);  // idles at n_0 = 0, its row alone sets T
  add(0.0, 1.0, 0.0, 1e-3);    // one item costs the port a second: dropped
  add(0.0, 1e-3, 0.0, 1e-3);
  add(0.0, 0.0, 0.0, 2e-3);    // the root
  const long long items = 1000;
  HeuristicResult result = lp_heuristic(platform, items);
  LpSolution oracle = simplex_lp(platform, items);
  EXPECT_NEAR(result.rational_makespan, oracle.makespan, tolerance(oracle.makespan));
  EXPECT_NEAR(result.rational_makespan, 50.0, tolerance(50.0));
  EXPECT_EQ(result.distribution.counts[1], 0);
  expect_feasible(platform, items, result, "binding zero row");
}

TEST(ChainLp, FreeProcessorTakesEverythingAtTheZeroShareBound) {
  model::Platform platform;
  for (int i = 0; i < 3; ++i) {
    model::Processor proc;
    proc.comm = model::Cost::affine(0.1, 1e-3);
    proc.comp = model::Cost::affine(0.2, 1e-3);
    platform.processors.push_back(proc);
  }
  platform.processors[1].comm = model::Cost::zero();
  platform.processors[1].comp = model::Cost::zero();
  for (long long items : {0LL, 1LL, 1'000'000LL}) {
    HeuristicResult result = lp_heuristic(platform, items);
    LpSolution oracle = simplex_lp(platform, items);
    // Every row at zero shares: max(0.1 + 0.2, 0.1, 0.1 + 0.1 + 0.2).
    EXPECT_NEAR(result.rational_makespan, 0.4, tolerance(0.4));
    EXPECT_NEAR(oracle.makespan, 0.4, tolerance(0.4));
    EXPECT_EQ(result.distribution.counts, (std::vector<long long>{0, items, 0}));
  }
}

// On linear costs LP (3) is homogeneous: T(n) = n T(1). At n = INT32_MAX,
// where the double simplex is inaccurate, its one-item optimum scaled by n
// is the oracle.
TEST(ChainLp, LinearCostsAtInt32MaxScaleTheOneItemOptimum) {
  support::Rng rng(2147483647);
  for (int trial = 0; trial < 200; ++trial) {
    Mix mix = random_mix(rng);
    mix.zero_fixed = 1.0;
    const int p = static_cast<int>(rng.uniform_int(1, trial < 190 ? 16 : 128));
    const auto platform = random_platform(rng, p, mix);
    HeuristicResult chain = lp_heuristic(platform, INT32_MAX);
    const double expected = simplex_lp(platform, 1).makespan * INT32_MAX;
    const std::string context = "trial " + std::to_string(trial) + " p=" + std::to_string(p);
    EXPECT_NEAR(chain.rational_makespan, expected, tolerance(expected)) << context;
    expect_feasible(platform, INT32_MAX, chain, context);
  }
}

// plan_affine's inputs: p 120-136 in Theorem 3 order, n near 10^6, about a
// quarter of the processors dropped. The rounded counts must be the
// simplex's, rounded by the scan.
TEST(ChainLp, PlanAffineShapedInputsRoundLikeTheSimplex) {
  support::Rng rng(1);
  long long dropped = 0;
  long long processors = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int p = static_cast<int>(rng.uniform_int(120, 136));
    const long long items = rng.uniform_int(950'000, 1'050'000);
    const auto platform = random_platform(rng, p, Mix{});
    HeuristicResult chain = lp_heuristic(platform, items);
    LpSolution oracle = simplex_lp(platform, items);
    const std::string context = "trial " + std::to_string(trial);
    EXPECT_NEAR(chain.rational_makespan, oracle.makespan, tolerance(oracle.makespan))
        << context;
    expect_feasible(platform, items, chain, context);
    EXPECT_EQ(chain.distribution.counts, scan_round(oracle.shares, items).counts)
        << context;
    dropped += std::count(chain.distribution.counts.begin(),
                          chain.distribution.counts.end(), 0);
    processors += p;
  }
  EXPECT_GT(dropped * 8, processors);  // the shape drops processors
}

// Past the simplex's reach, every row of LP (3) must hold and the shares
// must sum to n.
TEST(ChainLp, FeasibleAtThousandsOfProcessors) {
  support::Rng rng(97);
  for (int p : {1024, 4096}) {
    for (int trial = 0; trial < 6; ++trial) {
      Mix mix = random_mix(rng);
      const long long items = trial % 2 == 0 ? 1'000'000 : INT32_MAX;
      const auto platform = random_platform(rng, p, mix);
      expect_feasible(platform, items, lp_heuristic(platform, items),
                      "p=" + std::to_string(p) + " trial " + std::to_string(trial));
    }
  }
}

// Shares of every awkward kind, summing to an integer n.
std::vector<double> random_shares(support::Rng& rng, int p, long long& items) {
  std::vector<double> shares(static_cast<std::size_t>(p));
  const double fraction = rng.uniform();  // one fractional part shared by many
  for (double& share : shares) {
    const double whole = static_cast<double>(rng.uniform_int(0, 1000));
    switch (rng.uniform_int(0, 6)) {
      case 0: share = whole; break;
      case 1: share = whole + 0.5; break;
      case 2: share = whole + fraction; break;
      case 3: share = 0.0; break;
      case 4: share = -rng.uniform(0.0, 1e-9); break;
      default: share = whole + rng.uniform(); break;
    }
  }
  // Move the sum onto an integer through one non-negative share.
  double total = std::accumulate(shares.begin(), shares.end(), 0.0);
  items = static_cast<long long>(std::ceil(total));
  double& last = shares[static_cast<std::size_t>(rng.uniform_int(0, p - 1))];
  last = std::max(last, 0.0) + (static_cast<double>(items) - total);
  total = std::accumulate(shares.begin(), shares.end(), 0.0);
  items = std::llround(total);
  return shares;
}

void expect_same_rounding(std::span<const double> shares, long long items,
                          const std::string& context) {
  Distribution expected;
  try {
    expected = scan_round(shares, items);
  } catch (const lbs::Error&) {
    EXPECT_THROW(round_distribution(shares, items), lbs::Error) << context;
    return;
  }
  EXPECT_EQ(round_distribution(shares, items).counts, expected.counts) << context;
}

TEST(SortedRounding, PicksWhatTheScanPicks) {
  support::Rng rng(18640);
  for (int trial = 0; trial < 3000; ++trial) {
    const int p = trial < 2500 ? static_cast<int>(rng.uniform_int(1, 24))
                               : static_cast<int>(rng.uniform_int(25, 600));
    long long items = 0;
    std::vector<double> shares = random_shares(rng, p, items);
    expect_same_rounding(shares, items, "trial " + std::to_string(trial));
  }
  for (int p : {1024, 4096}) {
    long long items = 0;
    std::vector<double> shares = random_shares(rng, p, items);
    expect_same_rounding(shares, items, "p=" + std::to_string(p));
  }
}

TEST(SortedRounding, PicksWhatTheScanPicksOnLinearShares) {
  support::Rng rng(128);
  for (int p : {128, 512, 1024, 4096}) {
    std::vector<double> alpha(static_cast<std::size_t>(p));
    std::vector<double> beta(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      alpha[static_cast<std::size_t>(i)] = log_uniform(rng, 1e-3, 3e-2);
      beta[static_cast<std::size_t>(i)] = i + 1 == p ? 0.0 : log_uniform(rng, 3e-7, 3e-5);
    }
    std::sort(beta.begin(), beta.end() - 1);
    const long long items = 1'000'000;
    RationalSolution rational = solve_linear(alpha, beta, static_cast<double>(items));
    expect_same_rounding(rational.share, items, "p=" + std::to_string(p));
  }
}

}  // namespace
}  // namespace lbs::core
