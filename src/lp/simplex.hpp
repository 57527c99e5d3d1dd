// Dense two-phase primal simplex solver.
//
// The paper's guaranteed heuristic (Section 3.3) codes the scatter problem
// as a linear program and solves it in rationals (the authors used pipMP).
// core::lp_heuristic solves that LP by its chain structure; this general
// solver is the tests' oracle for it. A dense tableau with Bland's
// anti-cycling rule in double precision costs O(p^3) on the scatter LP's
// p+1 variables and p+1 constraints.
//
// Problem form: minimize cᵀx subject to row constraints (<=, >=, =) and
// x >= 0.
#pragma once

#include <string>
#include <vector>

namespace lbs::lp {

enum class Relation { LessEq, GreaterEq, Equal };

struct Constraint {
  std::vector<double> coeffs;  // one per variable
  Relation relation = Relation::LessEq;
  double rhs = 0.0;
};

struct Problem {
  int num_vars = 0;
  std::vector<double> objective;  // minimized; one per variable
  std::vector<Constraint> constraints;

  // Convenience builders.
  void minimize(std::vector<double> coeffs);
  void add(std::vector<double> coeffs, Relation relation, double rhs);
};

enum class SolveStatus { Optimal, Infeasible, Unbounded };

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  std::vector<double> x;    // engaged iff status == Optimal
  double objective = 0.0;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::Optimal; }
};

std::string to_string(SolveStatus status);

// Solves with Bland's rule (guaranteed termination). Tolerance is the
// absolute feasibility/optimality epsilon on the (well-scaled) tableau.
Solution solve(const Problem& problem, double tolerance = 1e-9);

}  // namespace lbs::lp
