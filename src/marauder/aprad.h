// AP-Rad (Section III-C.2 / III-D): when only AP locations are known,
// estimate every observed AP's maximum transmission distance by linear
// programming over co-observation evidence. The final M-Loc over those
// radii is the Tracker's (tracker.h), which composes the chain.
//
// Constraint generation follows the paper: for APs i, j both observed,
//   r_i + r_j >= d_ij   if some mobile's Gamma contains both,
//   r_i + r_j <  d_ij   if no mobile ever saw both.
// Practical deviations (documented in DESIGN.md):
//   * only APs appearing in at least one Gamma become LP variables — an AP
//     nobody ever heard carries no information and would otherwise inject
//     spurious "<" constraints against every observed AP;
//   * "<" constraints are only generated for pairs closer than 2x the radius
//     cap (beyond that the box bounds already imply them), and only against
//     each AP's nearest `max_less_neighbors` non-co-observed APs — the
//     nearest pairs carry (almost) all the binding pressure, and without the
//     limit a dense campus produces O(n^2) soft rows that swamp the LP;
//   * "<" constraints are soft — real observation sets make them mutually
//     infeasible — while co-observation ">=" constraints stay hard;
//   * radii are capped by the Theorem-1 bound, without which maximizing
//     sum(r) is unbounded for APs with no "<" neighbour.
// The LP is solved once, over every row, as a min-cost flow (lp/pair_lp.h).
// Where its optimum is not unique — one binding r_i + r_j <= c row can be
// split any way between i and j — the flow returns one optimal point, not
// necessarily a vertex, so such radii can differ from a simplex's while the
// objective is the same.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "marauder/ap_database.h"
#include "net80211/mac_address.h"

namespace mm::marauder {

struct ApRadOptions {
  /// Theorem-1-style cap on any AP's maximum transmission distance.
  double max_radius_m = 250.0;
  /// Per-AP limit on "<" constraints (nearest non-co-observed neighbours).
  std::size_t max_less_neighbors = 8;
};

/// The LP inputs produced by constraint generation, exposed so benches and
/// equivalence tests can exercise the hot path without paying for the LP.
struct ApRadConstraints {
  /// LP variables in first-appearance order across the Gamma list.
  std::vector<net80211::MacAddress> observed;
  std::vector<geo::Vec2> position;  ///< aligned with observed
  /// Soft "<" rows: (i, j) pair (i < j) -> separating distance, deduped.
  std::map<std::pair<std::size_t, std::size_t>, double> less_rows;
  /// Hard ">=" candidates: co-observed pairs in ascending order, with their
  /// precomputed distances.
  std::vector<std::pair<std::size_t, std::size_t>> co_pairs;
  std::vector<double> co_dist;
};

/// Constraint generation only (everything before the LP solve).
[[nodiscard]] ApRadConstraints aprad_prepare_constraints(
    const ApDatabase& db, const std::vector<std::set<net80211::MacAddress>>& gammas,
    const ApRadOptions& options = {});

/// Radii estimated by the LP, keyed by BSSID (only observed APs appear):
/// each LP radius plus a 10 m overestimate bias (Theorem 3 makes
/// overestimates cheap and underestimates costly), clamped to the cap. The
/// "<" rows read r_i + r_j <= d - 1 m, the strict "<" with a 1 m margin.
[[nodiscard]] std::map<net80211::MacAddress, double> aprad_estimate_radii(
    const ApDatabase& db, const std::vector<std::set<net80211::MacAddress>>& gammas,
    const ApRadOptions& options = {});

}  // namespace mm::marauder
