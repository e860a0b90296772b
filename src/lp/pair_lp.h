// The pair-sum LP that AP-Rad builds, solved once as a min-cost flow.
//
// Every row of the AP-Rad LP bounds the sum of two radii, r_i + r_j <= c or
// r_i + r_j >= d, over box-bounded variables 0 <= r <= cap. On the double
// cover (u_i = r_i, v_i = -r_i, plus one reference node fixed at 0) each
// row becomes two difference constraints, e.g. u_i - v_j <= c and
// u_j - v_i <= c, and the objective sum(r) becomes sum(u - v) / 2. An LP
// over difference constraints is the dual of a min-cost flow: a constraint
// x_a - x_b <= w is an arc a -> b of cost w, a soft row's penalty is its
// arcs' capacity, the objective's +1 at u_i and -1 at v_i are the node
// supplies, and optimal node potentials, negated, are an optimal x.
// Averaging maps any cover solution back to r = (u - v) / 2 without losing
// objective, so the flow's optimum is the LP's (the two-variables-per-
// inequality technique of Hochbaum, Megiddo, Naor and Tamir, 1993).
//
// The solve has no failure path. Every hard row has d <= 2 cap, so the
// point r_i = (longest hard row through i) / 2 meets them all and the box;
// as starting potentials it prices every uncapacitated arc at a
// non-negative reduced cost, so no cycle of them is negative and the
// optimum is finite. The reference node joins every pair of nodes on
// uncapacitated arcs, so a feasible flow exists. Integer supplies and capacities make each
// augmentation move at least one unit, so the solve ends. Where the optimum
// is not unique (a binding row split between its two radii), the
// potentials pick one optimal point, which need not be a vertex of the LP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mm::lp {

/// One row over the sum r_i + r_j.
struct PairRow {
  std::size_t i = 0;
  std::size_t j = 0;
  double bound = 0.0;
};

/// Over r_0 .. r_{variables-1}, with 0 <= r <= cap (cap >= 0):
///   maximize  sum(r) - at_most_penalty  * sum of (r_i + r_j - bound)+ over `at_most`
///                    - at_least_penalty * sum of (bound - r_i - r_j)+ over the
///                                         `at_least` rows with bound > 2 cap
///   subject to r_i + r_j >= bound for every `at_least` row with bound <= 2 cap.
/// So every "<=" row is soft, and a ">=" row is hard exactly when the box can
/// meet it. Penalties are positive whole numbers: they become arc capacities.
struct PairLp {
  std::size_t variables = 0;
  double cap = 0.0;
  std::vector<PairRow> at_most;
  std::vector<PairRow> at_least;
  std::int64_t at_most_penalty = 1;
  std::int64_t at_least_penalty = 1;
};

/// An optimal r, one value per variable. Deterministic in its input.
[[nodiscard]] std::vector<double> solve(const PairLp& lp);

}  // namespace mm::lp
