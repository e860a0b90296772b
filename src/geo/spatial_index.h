// Atlas: the shared deterministic spatial index (DESIGN.md §11).
//
// An immutable flat grid over points that stay where their owner keeps
// them. Every layer of the system asks the same question — "which points
// lie within range of here?" — and before Atlas each layer answered it with
// its own linear scan (sim delivery, AP-Rad's neighbour pass, ApDatabase
// lookups, the WPS tiles).
// The index is built once from a PointView, whose indices are the ids. It
// chooses its own square cell, about one point per cell over the bounding
// box, and one counting sort lays out two uint32 arrays: cell offsets over
// the dense row-major grid, and ids in (cell, id) order. It copies no
// coordinate: every query takes the owner's points again (the same view
// the index was built from, checked by count) and reads them in place, so
// a Vec2 array, a WPS tile's mapped records and ApDatabase's x/y slab are
// all indexed at 4 bytes per point plus 4 per cell. A disc query visits
// only the overlapping cells, one contiguous run of ids per grid row.
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
#include <cstring>
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

/// n points read in place from their owner's memory: point i's x is the
/// double at byte x + i * stride, its y the double at y + i * stride. A Vec2
/// array (stride 16), records with x and y at fixed offsets (a WPS tile's
/// 32-byte PackedRecords) and two parallel double arrays (stride 8) are all
/// views. It copies and owns nothing, so the points must outlive its use.
class PointView {
 public:
  PointView() = default;
  PointView(std::span<const Vec2> points) noexcept  // NOLINT(google-explicit-constructor)
      : PointView(points.empty() ? nullptr : &points.front().x,
                  points.empty() ? nullptr : &points.front().y, sizeof(Vec2), points.size()) {}
  PointView(const std::vector<Vec2>& points) noexcept  // NOLINT(google-explicit-constructor)
      : PointView(std::span<const Vec2>(points)) {}
  PointView(const void* x, const void* y, std::size_t stride_bytes, std::size_t count) noexcept
      : x_(static_cast<const unsigned char*>(x)),
        y_(static_cast<const unsigned char*>(y)),
        stride_(stride_bytes),
        count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] Vec2 operator[](std::size_t i) const noexcept {
    // memcpy, not a double*: the bytes may be a mapped file's, at any offset.
    Vec2 p;
    std::memcpy(&p.x, x_ + i * stride_, sizeof(double));
    std::memcpy(&p.y, y_ + i * stride_, sizeof(double));
    return p;
  }

 private:
  const unsigned char* x_ = nullptr;
  const unsigned char* y_ = nullptr;
  std::size_t stride_ = 0;
  std::size_t count_ = 0;
};

class SpatialIndex {
 public:
  using Id = std::uint32_t;

  /// An empty index.
  SpatialIndex() = default;
  /// Indexes points[0..n): the ids are the view's indices. The cell is
  /// max(sqrt(area / n), longest side / n) over the bounding box of the
  /// finite coordinates, so the grid has at most 2n + 2 cells for any input
  /// (coincident, collinear, 1e18-scale); non-finite coordinates clamp into
  /// the edge cells. Throws std::length_error beyond 2^32 - 1 points.
  explicit SpatialIndex(PointView points);

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
  /// Cells of the dense grid (0 when empty).
  [[nodiscard]] std::size_t cell_count() const noexcept { return nx_ * ny_; }
  /// Heap bytes the index holds: its offset and id arrays.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return (offsets_.capacity() + ids_.capacity()) * sizeof(std::uint32_t);
  }

  // Every query reads `points`, which must be the points the index was built
  // from; a view of any other count throws std::invalid_argument.

  /// Ids of points with p.distance_to(center) <= radius_m, ascending.
  /// Negative or NaN radius yields an empty result.
  [[nodiscard]] std::vector<Id> query_disc(PointView points, Vec2 center,
                                           double radius_m) const;
  /// Allocation-reusing variant; `out` is cleared first.
  void query_disc(PointView points, Vec2 center, double radius_m, std::vector<Id>& out) const;

  /// The k closest points ordered by (distance_to(center), id); fewer when
  /// the index holds fewer than k points. Walks Chebyshev rings of cells
  /// around the query's cell, clipped to the grid and starting at the first
  /// ring that touches it, and stops once the k-th distance beats the next
  /// ring's lower bound; allocates only its k-slot heap and the result.
  [[nodiscard]] std::vector<Id> nearest_k(PointView points, Vec2 center, std::size_t k) const;

 private:
  /// Throws unless `points` holds as many points as the index.
  void check_count(const PointView& points) const;
  /// Grid column / row of a coordinate, clamped into the grid (NaN -> 0).
  [[nodiscard]] std::size_t column_of(double x) const noexcept;
  [[nodiscard]] std::size_t row_of(double y) const noexcept;

  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  Vec2 lo_;                 ///< the grid's corner: the finite bounding box's minimum
  double magnitude_ = 0.0;  ///< largest |coordinate| of the bounding box
  std::size_t nx_ = 0;      ///< columns
  std::size_t ny_ = 0;      ///< rows
  /// Cell c = row * nx_ + column holds ids_[offsets_[c], offsets_[c + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<Id> ids_;  ///< in (cell, id) order
};

}  // namespace mm::geo
