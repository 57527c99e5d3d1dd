#include "lp/exact_heuristic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/rounding.hpp"
#include "lp/exact_simplex.hpp"
#include "support/error.hpp"
#include "support/rational.hpp"

namespace lbs::lp {

ExactHeuristicResult lp_heuristic_exact(const model::Platform& platform,
                                        long long items, long long max_denominator) {
  using support::Rational;
  LBS_CHECK_MSG(platform.size() >= 1, "empty platform");
  LBS_CHECK_MSG(items >= 0, "negative item count");
  LBS_CHECK_MSG(platform.all_costs_affine(),
                "the LP heuristic requires affine cost functions");

  int p = platform.size();

  // Rescale the time unit so every nonzero coefficient is >= 1 before
  // approximating: with an absolute denominator bound, a raw beta of
  // ~1e-5 s/item would otherwise round to 0 (and huge bounds overflow the
  // 128-bit exact arithmetic during pivoting). The scale is an exact
  // power of ten, divided back out of T at the end; the shares n_i are
  // unit-free and unaffected.
  double min_positive = std::numeric_limits<double>::infinity();
  for (int i = 0; i < p; ++i) {
    for (double value : {platform[i].comm.affine()->fixed,
                         platform[i].comm.affine()->per_item,
                         platform[i].comp.affine()->fixed,
                         platform[i].comp.affine()->per_item}) {
      if (value > 0.0) min_positive = std::min(min_positive, value);
    }
  }
  Rational scale(1);
  if (std::isfinite(min_positive) && min_positive < 1.0) {
    double factor = 1.0;
    while (min_positive * factor < 1.0) {
      factor *= 10.0;
      scale *= Rational(10);
    }
  }
  double scale_dbl = scale.to_double();
  auto approx = [max_denominator, scale_dbl](double value) {
    return Rational::approximate(value * scale_dbl, max_denominator);
  };

  std::vector<Rational> comm_fixed(static_cast<std::size_t>(p));
  std::vector<Rational> comm_slope(static_cast<std::size_t>(p));
  std::vector<Rational> comp_fixed(static_cast<std::size_t>(p));
  std::vector<Rational> comp_slope(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    auto comm = *platform[i].comm.affine();
    auto comp = *platform[i].comp.affine();
    comm_fixed[static_cast<std::size_t>(i)] = approx(comm.fixed);
    comm_slope[static_cast<std::size_t>(i)] = approx(comm.per_item);
    comp_fixed[static_cast<std::size_t>(i)] = approx(comp.fixed);
    comp_slope[static_cast<std::size_t>(i)] = approx(comp.per_item);
  }

  ExactProblem problem;
  std::vector<Rational> objective(static_cast<std::size_t>(p) + 1);
  objective.back() = Rational(1);
  problem.minimize(std::move(objective));
  {
    std::vector<Rational> coeffs(static_cast<std::size_t>(p) + 1);
    for (int i = 0; i < p; ++i) coeffs[static_cast<std::size_t>(i)] = Rational(1);
    problem.add(std::move(coeffs), Relation::Equal, Rational(items));
  }
  Rational fixed_comm_prefix;
  for (int i = 0; i < p; ++i) {
    fixed_comm_prefix += comm_fixed[static_cast<std::size_t>(i)];
    std::vector<Rational> coeffs(static_cast<std::size_t>(p) + 1);
    for (int j = 0; j <= i; ++j) {
      coeffs[static_cast<std::size_t>(j)] = comm_slope[static_cast<std::size_t>(j)];
    }
    coeffs[static_cast<std::size_t>(i)] += comp_slope[static_cast<std::size_t>(i)];
    coeffs.back() = Rational(-1);
    problem.add(std::move(coeffs), Relation::LessEq,
                -(fixed_comm_prefix + comp_fixed[static_cast<std::size_t>(i)]));
  }

  auto solution = solve_exact(problem);
  LBS_CHECK_MSG(solution.optimal(),
                "exact scatter LP not optimal: " + to_string(solution.status));

  ExactHeuristicResult result;
  result.rational_shares.assign(solution.x.begin(), solution.x.end() - 1);
  result.rational_makespan =
      solution.objective / support::BigRational::from_rational(scale);
  result.distribution = core::round_distribution_exact(result.rational_shares, items);
  result.makespan = core::makespan(platform, result.distribution);
  return result;
}

}  // namespace lbs::lp
