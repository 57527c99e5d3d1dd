#include "lp/exact_simplex.hpp"

#include <gtest/gtest.h>

#include "core/heuristic.hpp"
#include "lp/exact_heuristic.hpp"
#include "model/testbed.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace lbs::lp {
namespace {

using support::BigRational;
using support::Rational;

TEST(ExactSimplex, SolvesTextbookProblemExactly) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: optimum (2, 6), -36.
  ExactProblem problem;
  problem.minimize({Rational(-3), Rational(-5)});
  problem.add({Rational(1), Rational(0)}, Relation::LessEq, Rational(4));
  problem.add({Rational(0), Rational(2)}, Relation::LessEq, Rational(12));
  problem.add({Rational(3), Rational(2)}, Relation::LessEq, Rational(18));
  auto solution = solve_exact(problem);
  ASSERT_TRUE(solution.optimal());
  EXPECT_EQ(solution.x[0], BigRational(2));
  EXPECT_EQ(solution.x[1], BigRational(6));
  EXPECT_EQ(solution.objective, BigRational(-36));
}

TEST(ExactSimplex, FractionalOptimumIsExact) {
  // min -x - y s.t. 2x + y <= 3, x + 2y <= 3: optimum (1, 1); with
  // rhs (1, 1): optimum (1/3, 1/3), objective -2/3 — exactly.
  ExactProblem problem;
  problem.minimize({Rational(-1), Rational(-1)});
  problem.add({Rational(2), Rational(1)}, Relation::LessEq, Rational(1));
  problem.add({Rational(1), Rational(2)}, Relation::LessEq, Rational(1));
  auto solution = solve_exact(problem);
  ASSERT_TRUE(solution.optimal());
  EXPECT_EQ(solution.x[0], BigRational(support::BigInt(1), support::BigInt(3)));
  EXPECT_EQ(solution.x[1], BigRational(support::BigInt(1), support::BigInt(3)));
  EXPECT_EQ(solution.objective, BigRational(support::BigInt(-2), support::BigInt(3)));
}

TEST(ExactSimplex, InfeasibleDetectedExactly) {
  ExactProblem problem;
  problem.minimize({Rational(1)});
  problem.add({Rational(1)}, Relation::LessEq, Rational(1));
  problem.add({Rational(1)}, Relation::GreaterEq, Rational(2));
  EXPECT_EQ(solve_exact(problem).status, SolveStatus::Infeasible);
}

TEST(ExactSimplex, UnboundedDetected) {
  ExactProblem problem;
  problem.minimize({Rational(-1), Rational(0)});
  problem.add({Rational(0), Rational(1)}, Relation::LessEq, Rational(1));
  EXPECT_EQ(solve_exact(problem).status, SolveStatus::Unbounded);
}

TEST(ExactSimplex, EqualityAndNegativeRhs) {
  // min x s.t. -x <= -3 and x + y = 5.
  ExactProblem problem;
  problem.minimize({Rational(1), Rational(0)});
  problem.add({Rational(-1), Rational(0)}, Relation::LessEq, Rational(-3));
  problem.add({Rational(1), Rational(1)}, Relation::Equal, Rational(5));
  auto solution = solve_exact(problem);
  ASSERT_TRUE(solution.optimal());
  EXPECT_EQ(solution.x[0], BigRational(3));
  EXPECT_EQ(solution.x[1], BigRational(2));
}

TEST(ExactSimplex, AgreesWithDoubleSimplexOnRandomLps) {
  support::Rng rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    int num_vars = static_cast<int>(rng.uniform_int(2, 4));
    int num_rows = static_cast<int>(rng.uniform_int(1, 4));

    Problem dbl;
    ExactProblem exact;
    std::vector<double> objective;
    std::vector<Rational> objective_exact;
    for (int j = 0; j < num_vars; ++j) {
      auto c = static_cast<double>(rng.uniform_int(-5, 5));
      objective.push_back(c);
      objective_exact.push_back(Rational(static_cast<long long>(c)));
    }
    dbl.minimize(objective);
    exact.minimize(objective_exact);

    for (int r = 0; r < num_rows + num_vars; ++r) {
      std::vector<double> coeffs;
      std::vector<Rational> coeffs_exact;
      for (int j = 0; j < num_vars; ++j) {
        long long c = r < num_rows ? rng.uniform_int(0, 4)
                                   : (j == r - num_rows ? 1 : 0);  // box rows
        coeffs.push_back(static_cast<double>(c));
        coeffs_exact.push_back(Rational(c));
      }
      long long rhs = rng.uniform_int(1, 9);
      dbl.add(coeffs, Relation::LessEq, static_cast<double>(rhs));
      exact.add(coeffs_exact, Relation::LessEq, Rational(rhs));
    }

    auto exact_solution = solve_exact(exact);
    auto dbl_solution = solve(dbl);
    ASSERT_EQ(exact_solution.optimal(), dbl_solution.optimal());
    if (exact_solution.optimal()) {
      EXPECT_NEAR(exact_solution.objective.to_double(), dbl_solution.objective, 1e-7)
          << "trial " << trial;
    }
  }
}

TEST(ExactSimplex, DegenerateCyclesTerminateViaBland) {
  // The classic Beale cycling example (cycles under Dantzig's rule).
  ExactProblem problem;
  problem.minimize({Rational(-3, 4), Rational(150), Rational(-1, 50), Rational(6)});
  problem.add({Rational(1, 4), Rational(-60), Rational(-1, 25), Rational(9)},
              Relation::LessEq, Rational(0));
  problem.add({Rational(1, 2), Rational(-90), Rational(-1, 50), Rational(3)},
              Relation::LessEq, Rational(0));
  problem.add({Rational(0), Rational(0), Rational(1), Rational(0)},
              Relation::LessEq, Rational(1));
  auto solution = solve_exact(problem);
  ASSERT_TRUE(solution.optimal());
  EXPECT_EQ(solution.objective, BigRational(support::BigInt(-1), support::BigInt(20)));
}

TEST(RationalApproximate, ConvergentsAreBest) {
  // pi ~ 355/113 is the classic best approximation under 1000.
  auto pi = Rational::approximate(3.14159265358979, 1000);
  EXPECT_EQ(pi, Rational(355, 113));
  // Exact small rationals come back exactly.
  EXPECT_EQ(Rational::approximate(0.5, 10), Rational(1, 2));
  EXPECT_EQ(Rational::approximate(-0.25, 100), Rational(-1, 4));
  EXPECT_EQ(Rational::approximate(7.0, 1), Rational(7));
}

TEST(RationalApproximate, RespectsDenominatorBound) {
  support::Rng rng(31337);
  for (int i = 0; i < 200; ++i) {
    double value = rng.uniform(-100.0, 100.0);
    long long max_den = rng.uniform_int(1, 100000);
    auto approx = Rational::approximate(value, max_den);
    EXPECT_LE(approx.den(), static_cast<Rational::Int>(max_den));
    // Quality: within 1/max_den of the value.
    EXPECT_NEAR(approx.to_double(), value, 1.0 / static_cast<double>(max_den));
  }
}

TEST(ExactHeuristic, MatchesDoubleHeuristicOnTestbed) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  for (long long n : {1000LL, 50000LL}) {
    auto exact = lp_heuristic_exact(platform, n);
    auto dbl = core::lp_heuristic(platform, n);
    EXPECT_EQ(exact.distribution.total(), n);
    EXPECT_NEAR(exact.rational_makespan.to_double(), dbl.rational_makespan,
                dbl.rational_makespan * 1e-4);
    // Realized makespans agree to rounding noise.
    EXPECT_NEAR(exact.makespan, dbl.makespan, dbl.makespan * 1e-4);
  }
}

TEST(ExactHeuristic, ExactRoundingInvariantsHold) {
  auto grid = model::paper_testbed();
  auto platform = make_platform(grid, model::paper_root(grid));
  long long n = 12345;
  auto result = lp_heuristic_exact(platform, n);
  ASSERT_EQ(result.rational_shares.size(), static_cast<std::size_t>(platform.size()));
  BigRational sum;
  for (std::size_t i = 0; i < result.rational_shares.size(); ++i) {
    sum += result.rational_shares[i];
    BigRational deviation =
        (BigRational(result.distribution.counts[i]) - result.rational_shares[i]).abs();
    EXPECT_LT(deviation, BigRational(1)) << "share " << i;
  }
  EXPECT_EQ(sum, BigRational(n));
}

}  // namespace
}  // namespace lbs::lp
