// Atlas: the shared deterministic spatial index (DESIGN.md §11).
//
// A uniform hash grid over geo::Vec2. Every layer of the system asks the
// same question — "which points lie within range of here?" — and before
// Atlas each layer answered it with its own linear scan (sim delivery,
// AP-Rad's neighbour pass, ApDatabase lookups, incremental M-Loc pruning).
// The index buckets points into square cells keyed by the floor of their
// coordinates over the cell size; a disc or rect query visits only the
// overlapping cells.
//
// Determinism contract (what lets indexed hot paths stay bit-identical to
// their scan baselines):
//   * every query's result is sorted by ascending id (nearest_k: by
//     (distance, id)) — the exact order a brute-force scan over ids in
//     ascending order produces, independent of hash-map iteration order,
//     insertion order, or cell size;
//   * membership predicates reuse the project-wide geometry primitives bit
//     for bit: query_disc keeps p iff p.distance_to(center) <= radius —
//     the same std::hypot expression the scan call sites evaluate — so a
//     point on the boundary lands on the same side in both worlds;
//   * const queries are pure reads: any number of threads may query one
//     index concurrently (mutation requires external exclusion).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geo/vec2.h"

namespace mm::geo {

/// Rounding allowances for pruning a search over a grid (SpatialIndex's
/// cells, the WPS service's tiles). Bucketing v by floor(v / cell) can put a
/// point a few ulps of |v| across a cell edge, and hypot rounds too, so a
/// lower bound is shaved and the rectangle of cells a disc query visits is
/// widened by a relative and a magnitude-scaled margin: sloppiness only ever
/// scans more, never drops a contender.
[[nodiscard]] inline double shaved_bound(double bound_m, Vec2 center) noexcept {
  return bound_m * (1.0 - 1e-12) - std::max(std::abs(center.x), std::abs(center.y)) * 1e-15;
}
[[nodiscard]] inline double widened_radius(double radius_m, Vec2 center) noexcept {
  return radius_m * (1.0 + 1e-12) + std::max(std::abs(center.x), std::abs(center.y)) * 1e-15;
}

class SpatialIndex {
 public:
  using Id = std::uint64_t;

  /// `cell_size_m` must be positive and finite; it only affects performance,
  /// never results. A good choice is near the typical query radius.
  explicit SpatialIndex(double cell_size_m);

  /// Bulk construction over points[0..n): ids are the span indices. A
  /// non-positive cell size picks one from the bounding box (~1 point/cell).
  [[nodiscard]] static SpatialIndex build_from(std::span<const Vec2> points,
                                               double cell_size_m = 0.0);

  /// Inserting an id that is already present throws std::invalid_argument.
  void insert(Id id, Vec2 p);
  /// Returns false when the id was not present.
  bool erase(Id id);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] bool contains(Id id) const { return points_.count(id) != 0; }
  [[nodiscard]] double cell_size_m() const noexcept { return cell_size_; }
  void clear();

  /// Ids of points with p.distance_to(center) <= radius_m, ascending.
  /// Negative or NaN radius yields an empty result.
  [[nodiscard]] std::vector<Id> query_disc(Vec2 center, double radius_m) const;
  /// Allocation-reusing variant; `out` is cleared first.
  void query_disc(Vec2 center, double radius_m, std::vector<Id>& out) const;

  /// Ids of points inside the closed rect [lo.x,hi.x] x [lo.y,hi.y], ascending.
  [[nodiscard]] std::vector<Id> query_range(Vec2 lo, Vec2 hi) const;
  void query_range(Vec2 lo, Vec2 hi, std::vector<Id>& out) const;

  /// The k closest points ordered by (distance_to(center), id); fewer when
  /// the index holds fewer than k points. Served by an allocation-free walk
  /// of Chebyshev cell rings around the query cell, clipped to the occupied
  /// bounding box and stopped once the k-th distance beats the next ring's
  /// lower bound; when the rings would cross more cells than the index
  /// occupies (clustered data, a center far outside the box) it ranks only
  /// the occupied cells instead, so the empty space between costs nothing.
  [[nodiscard]] std::vector<Id> nearest_k(Vec2 center, std::size_t k) const;

 private:
  struct Cell {
    std::int64_t x = 0;
    std::int64_t y = 0;
    auto operator<=>(const Cell&) const = default;
  };
  struct CellHasher {
    std::size_t operator()(const Cell& c) const noexcept;
  };
  struct Entry {
    Id id;
    Vec2 p;
  };

  [[nodiscard]] Cell cell_of(Vec2 p) const noexcept;

  double cell_size_;
  std::unordered_map<Cell, std::vector<Entry>, CellHasher> cells_;
  std::unordered_map<Id, Vec2> points_;
  // Bounding box of occupied cells (never shrunk on erase — only used to
  // bound nearest_k's ring expansion, where a loose box is merely slower).
  Cell cell_lo_{0, 0};
  Cell cell_hi_{0, 0};
  bool has_bounds_ = false;
};

/// The density-derived cell of an adaptive grid (ApDatabase's lazy grid, the
/// sim World's delivery grid, incremental M-Loc's center grid): ~1 point per
/// cell over the bounding box of the points `point_of` maps the non-empty
/// `items` to, clamped to [1 m, 1 km]; a box under 1 m² counts as 1 m².
template <typename Range, typename PointOf>
[[nodiscard]] double density_cell_m(const Range& items, PointOf point_of) {
  Vec2 lo = point_of(*std::begin(items));
  Vec2 hi = lo;
  std::size_t n = 0;
  for (const auto& item : items) {
    const Vec2 p = point_of(item);
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    ++n;
  }
  const double area = std::max(1.0, (hi.x - lo.x) * (hi.y - lo.y));
  return std::clamp(std::sqrt(area / static_cast<double>(n)), 1.0, 1000.0);
}

/// Whether an adaptive grid with cell `current_m` is worth rebuilding for
/// the density cell `wanted_m`: only outside (0.5x, 2x) of the current one.
/// Cell size never changes a query's answer (the contract above), only its
/// speed, so a small drift is not worth the churn.
[[nodiscard]] inline bool cell_change_is_material(double current_m,
                                                  double wanted_m) noexcept {
  return !(wanted_m > current_m * 0.5 && wanted_m < current_m * 2.0);
}

}  // namespace mm::geo
