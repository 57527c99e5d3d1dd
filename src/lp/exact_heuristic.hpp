// The guaranteed LP heuristic in exact arithmetic: a test oracle for
// core::lp_heuristic.
//
// It matches the paper's actual procedure (the authors used pipMP, an
// exact solver): the affine coefficients are approximated by rationals
// with denominator <= max_denominator (continued fractions), LP (3) is
// solved by the exact simplex, and the Section 3.3 rounding runs in exact
// arithmetic. `makespan` is still evaluated on the platform's true
// (double) cost model. The planner never calls it.
#pragma once

#include <vector>

#include "core/distribution.hpp"
#include "model/platform.hpp"
#include "support/bigrational.hpp"

namespace lbs::lp {

struct ExactHeuristicResult {
  core::Distribution distribution;
  double makespan = 0.0;
  std::vector<support::BigRational> rational_shares;
  support::BigRational rational_makespan;  // of the approximated LP
};

// Requires platform.all_costs_affine().
ExactHeuristicResult lp_heuristic_exact(const model::Platform& platform,
                                        long long items,
                                        long long max_denominator = 1000000);

}  // namespace lbs::lp
