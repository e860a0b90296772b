// Atlas: the shared deterministic spatial index (DESIGN.md §11).
//
// An immutable flat grid over geo::Vec2. Every layer of the system asks the
// same question — "which points lie within range of here?" — and before
// Atlas each layer answered it with its own linear scan (sim delivery,
// AP-Rad's neighbour pass, ApDatabase lookups, the WPS tiles).
// The index is built once from a span of points, whose indices are the ids.
// It chooses its own square cell, about one point per cell over the
// bounding box, and one counting sort lays the points out as two arrays:
// cell offsets over the dense row-major grid, and (point, id) entries in
// (cell, id) order. A disc query visits only the overlapping cells, one
// contiguous run of entries per grid row.
//
// Determinism contract (what lets indexed hot paths stay bit-identical to
// their scan baselines):
//   * every query's result is sorted by ascending id (nearest_k: by
//     (distance, id)) — the exact order a brute-force scan over ids in
//     ascending order produces, independent of the cell the grid chose;
//   * membership predicates reuse the project-wide geometry primitives bit
//     for bit: query_disc keeps p iff p.distance_to(center) <= radius —
//     the same std::hypot expression the scan call sites evaluate — so a
//     point on the boundary lands on the same side in both worlds;
//   * queries are pure reads: any number of threads may query one index
//     concurrently.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
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

  /// An empty index.
  SpatialIndex() = default;
  /// Indexes points[0..n): the ids are the span indices. The cell is
  /// max(sqrt(area / n), longest side / n) over the bounding box of the
  /// finite coordinates, so the grid has at most 2n + 2 cells for any input
  /// (coincident, collinear, 1e18-scale); non-finite coordinates clamp into
  /// the edge cells. Throws std::length_error beyond 2^32 - 1 points.
  explicit SpatialIndex(std::span<const Vec2> points);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Cells of the dense grid (0 when empty).
  [[nodiscard]] std::size_t cell_count() const noexcept { return nx_ * ny_; }

  /// Ids of points with p.distance_to(center) <= radius_m, ascending.
  /// Negative or NaN radius yields an empty result.
  [[nodiscard]] std::vector<Id> query_disc(Vec2 center, double radius_m) const;
  /// Allocation-reusing variant; `out` is cleared first.
  void query_disc(Vec2 center, double radius_m, std::vector<Id>& out) const;

  /// The k closest points ordered by (distance_to(center), id); fewer when
  /// the index holds fewer than k points. Walks Chebyshev rings of cells
  /// around the query's cell, clipped to the grid and starting at the first
  /// ring that touches it, and stops once the k-th distance beats the next
  /// ring's lower bound; allocates only its k-slot heap and the result.
  [[nodiscard]] std::vector<Id> nearest_k(Vec2 center, std::size_t k) const;

 private:
  struct Entry {
    Vec2 p;
    Id id = 0;
  };

  /// Grid column / row of a coordinate, clamped into the grid (NaN -> 0).
  [[nodiscard]] std::size_t column_of(double x) const noexcept;
  [[nodiscard]] std::size_t row_of(double y) const noexcept;

  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  Vec2 lo_;                 ///< the grid's corner: the finite bounding box's minimum
  double magnitude_ = 0.0;  ///< largest |coordinate| of the bounding box
  std::size_t nx_ = 0;      ///< columns
  std::size_t ny_ = 0;      ///< rows
  /// Cell c = row * nx_ + column holds entries_[offsets_[c], offsets_[c + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Entry> entries_;  ///< in (cell, id) order
};

}  // namespace mm::geo
