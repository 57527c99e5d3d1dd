// The paper's rounding scheme (Section 3.3).
//
// Given a rational distribution n_1..n_p summing to the integer n, produce
// an integer distribution n'_1..n'_p with sum n and |n'_i - n_i| < 1 for
// every i. That closeness is what powers the guarantee (Eq. 4):
//
//   T_opt <= T' <= T_opt + sum_j Tcomm(j,1) + max_i Tcomp(i,1)
//
// Scheme: round first the share nearest to an integer and track the
// accumulated error e; while e < 0 round the share nearest to its ceiling
// up, while e > 0 round the share nearest to its floor down; the last
// share absorbs the remaining error exactly.
//
// round_distribution sorts the shares once by distance to their floor and
// once by distance to their ceiling, ties to the smaller index, and takes
// each pick from the head that e's sign selects: O(p log p), with the
// same picks as a scan over every unrounded share per pick. The exact
// variants still scan, O(p^2).
#pragma once

#include <span>
#include <vector>

#include "core/distribution.hpp"
#include "model/platform.hpp"
#include "support/bigrational.hpp"
#include "support/rational.hpp"

namespace lbs::core {

// `shares` must be non-negative and sum to `items` (up to floating-point
// noise from the LP solver; a residual below 0.5 is absorbed).
Distribution round_distribution(std::span<const double> shares, long long items);

// Exact counterpart: the same scheme executed in rational arithmetic, as
// the paper states it. `shares` must be non-negative and sum to exactly
// `items`; every |n'_i - n_i| < 1 holds exactly. Overloads for the 128-bit
// Rational and the arbitrary-precision BigRational (the exact simplex's
// solutions can exceed 128 bits).
Distribution round_distribution_exact(std::span<const support::Rational> shares,
                                      long long items);
Distribution round_distribution_exact(std::span<const support::BigRational> shares,
                                      long long items);

// The additive slack of Eq. 4: sum_j Tcomm(j, 1) + max_i Tcomp(i, 1).
double rounding_guarantee_slack(const model::Platform& platform);

// Eq. 4 slack sound for *affine* costs with nonzero fixed terms. Three
// error sources stack on top of the LP optimum: the LP charges fixed
// terms even on zero shares (<= sum_j b_j + max_i c_i vs the true
// integral optimum), and rounding perturbs each share by under one item
// (<= sum_j beta_j + max_i alpha_i). The compute fixed term and slope can
// peak at *different* processors, so this keeps max_i c_i and
// max_i alpha_i separate — for linear costs (all fixed terms zero) it
// degenerates to rounding_guarantee_slack exactly. Requires
// all_costs_affine().
double affine_rounding_guarantee_slack(const model::Platform& platform);

}  // namespace lbs::core
