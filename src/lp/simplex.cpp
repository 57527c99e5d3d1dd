#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace lbs::lp {

void Problem::minimize(std::vector<double> coeffs) {
  objective = std::move(coeffs);
  num_vars = static_cast<int>(objective.size());
}

void Problem::add(std::vector<double> coeffs, Relation relation, double rhs) {
  LBS_CHECK_MSG(static_cast<int>(coeffs.size()) == num_vars,
                "constraint width mismatch (set the objective first)");
  constraints.push_back(Constraint{std::move(coeffs), relation, rhs});
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
  }
  return "?";
}

namespace {

// Dense tableau in canonical form: rows_ holds the m constraint rows
// (columns = all variables, last entry = rhs); basis columns are identity.
class Tableau {
 public:
  Tableau(const Problem& problem, double tolerance)
      : eps_(tolerance), n_(problem.num_vars) {
    int m = static_cast<int>(problem.constraints.size());

    // Column layout: [structural | slack/surplus | artificial].
    // Count slacks first so column indices are stable.
    int slack_count = 0;
    for (const auto& c : problem.constraints) {
      if (c.relation != Relation::Equal) ++slack_count;
    }
    slack_base_ = n_;
    artificial_base_ = n_ + slack_count;
    total_ = artificial_base_ + m;  // at most one artificial per row

    rows_.assign(static_cast<std::size_t>(m),
                 std::vector<double>(static_cast<std::size_t>(total_) + 1, 0.0));
    basis_.assign(static_cast<std::size_t>(m), -1);
    artificial_used_.assign(static_cast<std::size_t>(m), false);

    int slack = slack_base_;
    for (int r = 0; r < m; ++r) {
      const auto& c = problem.constraints[static_cast<std::size_t>(r)];
      auto& row = rows_[static_cast<std::size_t>(r)];
      double sign = 1.0;
      Relation relation = c.relation;
      if (c.rhs < 0.0) {  // normalize rhs >= 0
        sign = -1.0;
        if (relation == Relation::LessEq) relation = Relation::GreaterEq;
        else if (relation == Relation::GreaterEq) relation = Relation::LessEq;
      }
      for (int j = 0; j < n_; ++j) {
        row[static_cast<std::size_t>(j)] = sign * c.coeffs[static_cast<std::size_t>(j)];
      }
      row[static_cast<std::size_t>(total_)] = sign * c.rhs;

      if (relation == Relation::LessEq) {
        row[static_cast<std::size_t>(slack)] = 1.0;
        basis_[static_cast<std::size_t>(r)] = slack;
        ++slack;
      } else {
        if (relation == Relation::GreaterEq) {
          row[static_cast<std::size_t>(slack)] = -1.0;  // surplus
          ++slack;
        }
        int art = artificial_base_ + r;
        row[static_cast<std::size_t>(art)] = 1.0;
        basis_[static_cast<std::size_t>(r)] = art;
        artificial_used_[static_cast<std::size_t>(r)] = true;
      }
    }
  }

  // Minimizes the given objective (size total_, artificials included) over
  // the current basis; columns with allow[j] == false never enter.
  // Returns false when unbounded. Cache-line aligned: the reduced-cost and
  // pivot loops inlined here ran ~20% slower in perfbench plan_affine (on
  // a Sapphire Rapids Xeon) when unrelated code shifted this function by
  // 16 bytes, so its start is pinned rather than left to the link order.
  [[gnu::aligned(64)]]
  bool optimize(const std::vector<double>& objective, const std::vector<bool>& allow) {
    int m = static_cast<int>(rows_.size());
    for (;;) {
      // Reduced costs: d_j = c_j - sum_r c_basis[r] * row[r][j].
      std::vector<double> reduced = objective;
      for (int r = 0; r < m; ++r) {
        double cb = objective[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
        if (cb == 0.0) continue;
        const auto& row = rows_[static_cast<std::size_t>(r)];
        for (int j = 0; j < total_; ++j) {
          reduced[static_cast<std::size_t>(j)] -= cb * row[static_cast<std::size_t>(j)];
        }
      }

      // Bland's rule: smallest-index improving column.
      int entering = -1;
      for (int j = 0; j < total_; ++j) {
        if (!allow[static_cast<std::size_t>(j)]) continue;
        if (reduced[static_cast<std::size_t>(j)] < -eps_) {
          entering = j;
          break;
        }
      }
      if (entering < 0) return true;  // optimal

      // Ratio test; Bland tie-break on smallest basis variable index.
      int leaving = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int r = 0; r < m; ++r) {
        double a = rows_[static_cast<std::size_t>(r)][static_cast<std::size_t>(entering)];
        if (a <= eps_) continue;
        double ratio = rows_[static_cast<std::size_t>(r)][static_cast<std::size_t>(total_)] / a;
        if (ratio < best_ratio - eps_ ||
            (ratio < best_ratio + eps_ && leaving >= 0 &&
             basis_[static_cast<std::size_t>(r)] < basis_[static_cast<std::size_t>(leaving)])) {
          best_ratio = ratio;
          leaving = r;
        }
      }
      if (leaving < 0) return false;  // unbounded

      pivot(leaving, entering);
    }
  }

  // Objective value of the current basic solution under `objective`.
  [[nodiscard]] double objective_value(const std::vector<double>& objective) const {
    double value = 0.0;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      value += objective[static_cast<std::size_t>(basis_[r])] * rows_[r].back();
    }
    return value;
  }

  // After phase 1: pivots any artificial still in the basis out on a
  // non-artificial column; drops rows that are entirely redundant.
  void expel_artificials() {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (basis_[r] < artificial_base_) continue;
      int pivot_col = -1;
      for (int j = 0; j < artificial_base_; ++j) {
        if (std::abs(rows_[r][static_cast<std::size_t>(j)]) > eps_) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) {
        pivot(static_cast<int>(r), pivot_col);
      }
      // else: redundant row; its artificial stays basic at level ~0, which
      // is harmless because artificials are never allowed to re-enter and
      // carry zero cost in phase 2.
    }
  }

  [[nodiscard]] std::vector<double> extract(int num_vars) const {
    std::vector<double> x(static_cast<std::size_t>(num_vars), 0.0);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (basis_[r] < num_vars) {
        x[static_cast<std::size_t>(basis_[r])] = rows_[r].back();
      }
    }
    return x;
  }

  [[nodiscard]] int total_columns() const { return total_; }
  [[nodiscard]] int artificial_base() const { return artificial_base_; }

 private:
  void pivot(int leaving_row, int entering_col) {
    auto& prow = rows_[static_cast<std::size_t>(leaving_row)];
    double scale = prow[static_cast<std::size_t>(entering_col)];
    LBS_CHECK_MSG(std::abs(scale) > eps_ / 10.0, "degenerate pivot element");
    for (auto& value : prow) value /= scale;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (static_cast<int>(r) == leaving_row) continue;
      double factor = rows_[r][static_cast<std::size_t>(entering_col)];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < rows_[r].size(); ++j) {
        rows_[r][j] -= factor * prow[j];
      }
      rows_[r][static_cast<std::size_t>(entering_col)] = 0.0;  // cancel roundoff
    }
    basis_[static_cast<std::size_t>(leaving_row)] = entering_col;
  }

  double eps_;
  int n_;
  int slack_base_ = 0;
  int artificial_base_ = 0;
  int total_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<int> basis_;
  std::vector<bool> artificial_used_;
};

}  // namespace

Solution solve(const Problem& problem, double tolerance) {
  LBS_CHECK_MSG(problem.num_vars > 0, "LP with no variables");
  LBS_CHECK_MSG(static_cast<int>(problem.objective.size()) == problem.num_vars,
                "objective width mismatch");

  Tableau tableau(problem, tolerance);
  int total = tableau.total_columns();
  int artificial_base = tableau.artificial_base();

  // Phase 1: minimize the sum of artificials.
  std::vector<double> phase1(static_cast<std::size_t>(total), 0.0);
  for (int j = artificial_base; j < total; ++j) phase1[static_cast<std::size_t>(j)] = 1.0;
  std::vector<bool> allow_all(static_cast<std::size_t>(total), true);
  bool bounded = tableau.optimize(phase1, allow_all);
  LBS_CHECK_MSG(bounded, "phase-1 LP cannot be unbounded");

  Solution solution;
  // Infeasibility tolerance scales with the rhs magnitude via the tableau.
  if (tableau.objective_value(phase1) > 1e-7) {
    solution.status = SolveStatus::Infeasible;
    return solution;
  }
  tableau.expel_artificials();

  // Phase 2: original objective; artificials locked out.
  std::vector<double> phase2(static_cast<std::size_t>(total), 0.0);
  for (int j = 0; j < problem.num_vars; ++j) {
    phase2[static_cast<std::size_t>(j)] = problem.objective[static_cast<std::size_t>(j)];
  }
  std::vector<bool> allow(static_cast<std::size_t>(total), true);
  for (int j = artificial_base; j < total; ++j) allow[static_cast<std::size_t>(j)] = false;
  if (!tableau.optimize(phase2, allow)) {
    solution.status = SolveStatus::Unbounded;
    return solution;
  }

  solution.status = SolveStatus::Optimal;
  solution.x = tableau.extract(problem.num_vars);
  solution.objective = tableau.objective_value(phase2);
  return solution;
}

}  // namespace lbs::lp
