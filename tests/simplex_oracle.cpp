#include "simplex_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mm::lp::oracle {

namespace {

constexpr double kTol = 1e-9;

/// Dense simplex tableau in canonical form. Rows are constraints (rhs kept
/// separately), `basis[i]` is the variable basic in row i.
struct Tableau {
  std::size_t rows = 0;
  std::size_t cols = 0;  // number of variables (structural + slack + artificial)
  std::vector<double> a;  // rows x cols, row-major
  std::vector<double> rhs;
  std::vector<std::size_t> basis;

  double& at(std::size_t r, std::size_t c) { return a[r * cols + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return a[r * cols + c]; }

  void pivot(std::size_t pr, std::size_t pc) {
    const double pivot_value = at(pr, pc);
    const double inv = 1.0 / pivot_value;
    for (std::size_t c = 0; c < cols; ++c) at(pr, c) *= inv;
    rhs[pr] *= inv;
    at(pr, pc) = 1.0;  // kill residual round-off on the pivot itself
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pr) continue;
      const double factor = at(r, pc);
      if (std::abs(factor) < kTol) {
        at(r, pc) = 0.0;
        continue;
      }
      for (std::size_t c = 0; c < cols; ++c) at(r, c) -= factor * at(pr, c);
      rhs[r] -= factor * rhs[pr];
      at(r, pc) = 0.0;
    }
    basis[pr] = pc;
  }
};

/// Reduced costs for minimizing cost vector `cost`: z_j = c_j - c_B B^-1 A_j.
std::vector<double> reduced_costs(const Tableau& t, const std::vector<double>& cost) {
  std::vector<double> z(cost);
  for (std::size_t r = 0; r < t.rows; ++r) {
    const double cb = cost[t.basis[r]];
    if (cb == 0.0) continue;
    for (std::size_t c = 0; c < t.cols; ++c) z[c] -= cb * t.at(r, c);
  }
  return z;
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

/// Runs simplex iterations minimizing `cost`. `allowed[j]` masks columns
/// that may enter the basis (used to lock artificials out in phase 2).
PhaseResult run_simplex(Tableau& t, const std::vector<double>& cost,
                        const std::vector<bool>& allowed, std::size_t max_iters) {
  std::vector<double> z = reduced_costs(t, cost);
  std::size_t stall = 0;
  double last_objective = std::numeric_limits<double>::infinity();

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // Periodic full recompute guards against drift from the incremental
    // z-row updates below.
    if (iter != 0 && iter % 256 == 0) z = reduced_costs(t, cost);
    // Pricing: Dantzig (most negative reduced cost); Bland after stalls.
    const bool bland = stall > 64;
    std::size_t entering = t.cols;
    double best = -kTol;
    for (std::size_t c = 0; c < t.cols; ++c) {
      if (!allowed[c]) continue;
      if (z[c] < best) {
        best = z[c];
        entering = c;
        if (bland) break;  // Bland: first improving index
      }
    }
    if (entering == t.cols) return PhaseResult::kOptimal;

    // Ratio test (Bland tie-break on the smallest basis variable index).
    std::size_t leaving = t.rows;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows; ++r) {
      const double coeff = t.at(r, entering);
      if (coeff <= kTol) continue;
      const double ratio = t.rhs[r] / coeff;
      if (ratio < best_ratio - kTol ||
          (ratio < best_ratio + kTol &&
           (leaving == t.rows || t.basis[r] < t.basis[leaving]))) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == t.rows) return PhaseResult::kUnbounded;

    t.pivot(leaving, entering);
    // Incremental z-row update: after the pivot, row `leaving` is the
    // normalized pivot row; z' = z - z[entering] * pivot_row (O(cols)
    // instead of the O(rows*cols) full recompute).
    const double z_enter = z[entering];
    if (z_enter != 0.0) {
      for (std::size_t c = 0; c < t.cols; ++c) z[c] -= z_enter * t.at(leaving, c);
    }
    z[entering] = 0.0;

    // Track degeneracy: objective = c_B * rhs.
    double objective = 0.0;
    for (std::size_t r = 0; r < t.rows; ++r) objective += cost[t.basis[r]] * t.rhs[r];
    if (objective < last_objective - kTol) {
      stall = 0;
      last_objective = objective;
    } else {
      ++stall;
    }
  }
  return PhaseResult::kIterationLimit;
}

}  // namespace

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "?";
}

LinearProgram::LinearProgram(std::size_t num_variables) : objective_(num_variables, 0.0) {}

void LinearProgram::set_objective(std::size_t var, double coefficient) {
  objective_.at(var) = coefficient;
}

void LinearProgram::add_upper_bound(std::size_t var, double bound) {
  if (var >= num_variables()) throw std::out_of_range("add_upper_bound: bad variable");
  add_constraint({{{var, 1.0}}, Relation::kLessEqual, bound, false, 0.0});
}

std::size_t LinearProgram::add_constraint(Constraint constraint) {
  for (const auto& [var, coeff] : constraint.terms) {
    (void)coeff;
    if (var >= num_variables()) throw std::out_of_range("add_constraint: bad variable");
  }
  constraints_.push_back(std::move(constraint));
  return constraints_.size() - 1;
}

Solution LinearProgram::solve(std::size_t max_iterations) const {
  const std::size_t n = num_variables();
  const std::size_t m = constraints_.size();
  if (max_iterations == 0) max_iterations = 200 * (m + n) + 2000;

  // Column layout: [structural n][violation vars per soft row][slack/surplus
  // per row][artificials as needed].
  std::size_t num_soft = 0;
  for (const Constraint& c : constraints_) num_soft += c.soft ? 1 : 0;

  const std::size_t viol_base = n;
  const std::size_t slack_base = viol_base + num_soft;
  // Upper bound on columns: slack for every row + artificial for every row.
  const std::size_t art_base = slack_base + m;
  const std::size_t max_cols = art_base + m;

  Tableau t;
  t.rows = m;
  t.cols = max_cols;
  t.a.assign(m * max_cols, 0.0);
  t.rhs.assign(m, 0.0);
  t.basis.assign(m, 0);

  std::vector<double> phase2_cost(max_cols, 0.0);  // minimize -objective
  for (std::size_t j = 0; j < n; ++j) phase2_cost[j] = -objective_[j];

  std::vector<std::size_t> viol_col_of_row(m, max_cols);
  std::vector<bool> is_artificial(max_cols, false);
  std::size_t next_viol = viol_base;
  std::size_t next_art = art_base;

  for (std::size_t r = 0; r < m; ++r) {
    const Constraint& c = constraints_[r];
    for (const auto& [var, coeff] : c.terms) t.at(r, var) += coeff;
    double rhs = c.rhs;
    Relation rel = c.relation;

    if (c.soft) {
      // Violation variable relaxes the row toward feasibility.
      const std::size_t v = next_viol++;
      viol_col_of_row[r] = v;
      if (rel == Relation::kLessEqual) {
        t.at(r, v) = -1.0;
      } else if (rel == Relation::kGreaterEqual) {
        t.at(r, v) = 1.0;
      } else {
        // Soft equality: allow slack both ways via one signed pair would need
        // two columns; keep it simple and treat as >= with violation.
        t.at(r, v) = 1.0;
        rel = Relation::kGreaterEqual;
      }
      phase2_cost[v] = c.penalty;  // minimizing, so violation is charged
    }

    // Normalize to rhs >= 0.
    if (rhs < 0.0) {
      for (std::size_t col = 0; col < max_cols; ++col) t.at(r, col) = -t.at(r, col);
      rhs = -rhs;
      if (rel == Relation::kLessEqual) {
        rel = Relation::kGreaterEqual;
      } else if (rel == Relation::kGreaterEqual) {
        rel = Relation::kLessEqual;
      }
    }
    t.rhs[r] = rhs;

    const std::size_t slack = slack_base + r;
    if (rel == Relation::kLessEqual) {
      t.at(r, slack) = 1.0;
      t.basis[r] = slack;
    } else if (rel == Relation::kGreaterEqual) {
      t.at(r, slack) = -1.0;  // surplus
      const std::size_t art = next_art++;
      is_artificial[art] = true;
      t.at(r, art) = 1.0;
      t.basis[r] = art;
    } else {  // equality
      const std::size_t art = next_art++;
      is_artificial[art] = true;
      t.at(r, art) = 1.0;
      t.basis[r] = art;
    }
  }

  Solution solution;
  solution.values.assign(n, 0.0);
  solution.violations.assign(m, 0.0);

  std::vector<bool> allowed(max_cols, true);

  // Phase 1: drive artificials to zero.
  bool any_artificial = false;
  for (std::size_t c = 0; c < max_cols; ++c) any_artificial |= is_artificial[c];
  if (any_artificial) {
    std::vector<double> phase1_cost(max_cols, 0.0);
    for (std::size_t c = 0; c < max_cols; ++c) {
      if (is_artificial[c]) phase1_cost[c] = 1.0;
    }
    const PhaseResult pr = run_simplex(t, phase1_cost, allowed, max_iterations);
    if (pr == PhaseResult::kIterationLimit) {
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }
    double artificial_sum = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (is_artificial[t.basis[r]]) artificial_sum += t.rhs[r];
    }
    if (artificial_sum > 1e-6) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    // Pivot lingering degenerate artificials out of the basis where possible.
    for (std::size_t r = 0; r < m; ++r) {
      if (!is_artificial[t.basis[r]]) continue;
      for (std::size_t c = 0; c < art_base; ++c) {
        if (std::abs(t.at(r, c)) > kTol) {
          t.pivot(r, c);
          break;
        }
      }
    }
    for (std::size_t c = 0; c < max_cols; ++c) {
      if (is_artificial[c]) allowed[c] = false;
    }
  }

  // Phase 2: optimize the real objective.
  const PhaseResult pr = run_simplex(t, phase2_cost, allowed, max_iterations);
  if (pr == PhaseResult::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }
  if (pr == PhaseResult::kIterationLimit) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }

  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t var = t.basis[r];
    if (var < n) {
      solution.values[var] = t.rhs[r];
    } else if (var < slack_base) {
      // violation variable: find its row index
      for (std::size_t row = 0; row < m; ++row) {
        if (viol_col_of_row[row] == var) {
          solution.violations[row] = t.rhs[r];
          break;
        }
      }
    }
  }
  solution.status = SolveStatus::kOptimal;
  solution.objective = 0.0;
  for (std::size_t j = 0; j < n; ++j) solution.objective += objective_[j] * solution.values[j];
  for (double v : solution.violations) solution.total_violation += v;
  return solution;
}

}  // namespace mm::lp::oracle
