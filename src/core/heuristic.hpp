// The guaranteed LP heuristic (paper Section 3.3).
//
// For affine cost functions, Eq. (2) is coded as the linear program (3):
//
//   minimize T  s.t.  n_i >= 0,  sum_i n_i = n,
//   forall i:  T >= sum_{j<=i} Tcomm(j, n_j) + Tcomp(i, n_i)
//
// solved in rationals, then rounded with the Section 3.3 scheme, giving
// (Eq. 4):  T_opt <= T' <= T_opt + sum_j Tcomm(j,1) + max_i Tcomp(i,1).
//
// The LP is solved exactly by its chain structure, in one backward and one
// forward pass over the processors. G_i(u), the most items processors
// i..p can take when the root starts sending to processor i with u seconds
// left before T, is concave, piecewise linear and independent of T, so
// T = min{u : G_1(u) >= n} is read off G_1's pieces, and the forward pass
// replays each stage's choice at that budget. One stage turns G_{i+1} into
// G_i: pieces where one more item for i costs the later processors at
// least as much as it adds keep n_i = 0; one piece of slope 1/β_i follows;
// the rest, where row i caps n_i, map through Theorem 2's recurrence. With
// the pieces in two deques and the map as a lazy tag, a pass is O(p)
// amortized in Theorem 3 order and O(p^2) at worst. The dense simplex in
// lp/ is kept only as the tests' oracle.
//
// Note the LP treats an affine cost as affine *everywhere*, including at
// n_i = 0 where the true cost is 0 — one reason this is a heuristic, exact
// in the linear case modulo rounding.
#pragma once

#include <optional>
#include <vector>

#include "core/distribution.hpp"
#include "model/platform.hpp"

namespace lbs::core {

struct HeuristicResult {
  Distribution distribution;      // rounded, sums to n
  double makespan = 0.0;          // T': true cost (Eq. 2) of `distribution`
  std::vector<double> rational_shares;  // the LP optimum n_1..n_p
  double rational_makespan = 0.0;       // the LP objective T
  double guarantee_slack = 0.0;   // Eq. 4 additive slack
};

// Requires platform.all_costs_affine(). When some processor's two slopes
// are both zero, the LP's optimum is the least T at which every row holds
// with zero shares, and the first such processor takes every item.
HeuristicResult lp_heuristic(const model::Platform& platform, long long items);

// Independent cross-check used by tests: assuming *every* processor works
// and all finish simultaneously, the affine equal-finish chain
//   Tcomp(i, n_i) = Tcomm(i+1, n_{i+1}) + Tcomp(i+1, n_{i+1})
// is a linear system with one degree of freedom, closed by sum n_i = n.
// Returns nullopt when the assumption fails (some share comes out <= 0) —
// in that case the LP (which can zero processors out) is the answer.
std::optional<std::vector<double>> affine_equal_finish_shares(
    const model::Platform& platform, long long items);

}  // namespace lbs::core
