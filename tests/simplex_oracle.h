// The dense two-phase simplex that AP-Rad solved its LP with before
// src/lp/pair_lp.{h,cpp} replaced it, kept (namespace aside) as the oracle
// for tests/lp_simplex_test.cpp and the AP-Rad differential cases in
// tests/marauder_aprad_test.cpp. It solves any maximization LP over
// non-negative variables with <=, >= and = rows.
//
// Real observation sets routinely make the "<" constraints mutually
// infeasible, so constraints can be marked *soft*: a violation variable is
// added and charged to the objective, which yields the least-violating
// radius assignment instead of an INFEASIBLE verdict. Variables are
// non-negative; upper bounds (the Theorem-1 radius cap, without which the
// LP is unbounded) are expressed as explicit rows.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mm::lp::oracle {

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

struct Constraint {
  /// Sparse left-hand side: (variable index, coefficient).
  std::vector<std::pair<std::size_t, double>> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
  /// Soft constraints may be violated; each unit of violation costs
  /// `penalty` in the (maximized) objective.
  bool soft = false;
  double penalty = 1e6;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  std::vector<double> values;      ///< one per structural variable
  double objective = 0.0;          ///< original objective (soft penalties excluded)
  double total_violation = 0.0;    ///< summed violation across soft constraints
  std::vector<double> violations;  ///< per-constraint violation (0 for hard rows)

  [[nodiscard]] bool optimal() const noexcept { return status == SolveStatus::kOptimal; }
};

/// A maximization LP over non-negative variables.
class LinearProgram {
 public:
  explicit LinearProgram(std::size_t num_variables);

  [[nodiscard]] std::size_t num_variables() const noexcept { return objective_.size(); }
  [[nodiscard]] std::size_t num_constraints() const noexcept { return constraints_.size(); }

  /// Sets the (maximize) objective coefficient of a variable.
  void set_objective(std::size_t var, double coefficient);

  /// Convenience: adds the row x_var <= bound.
  void add_upper_bound(std::size_t var, double bound);

  /// Adds a general constraint; returns its index (for violations lookup).
  /// Throws std::out_of_range for a term referencing an unknown variable.
  std::size_t add_constraint(Constraint constraint);

  /// Solves with Dantzig pricing (Bland's rule after degeneracy stalls).
  [[nodiscard]] Solution solve(std::size_t max_iterations = 0) const;

 private:
  std::vector<double> objective_;
  std::vector<Constraint> constraints_;
};

}  // namespace mm::lp::oracle
