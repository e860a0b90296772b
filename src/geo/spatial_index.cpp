#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace mm::geo {

namespace {

/// floor((v - origin) * inv_cell): the signed cell coordinate, saturated at
/// +-2^40 (NaN -> -2^40) so any double is admissible. It is monotone in v,
/// so a point and a query bound that compare one way land in cells that
/// compare the same way, and clamping into the grid keeps that.
std::int64_t grid_coord(double v, double origin, double inv_cell) noexcept {
  constexpr double kLimit = 1099511627776.0;  // 2^40 cells
  const double scaled = std::floor((v - origin) * inv_cell);
  if (!(scaled > -kLimit)) return -static_cast<std::int64_t>(kLimit);
  if (scaled > kLimit) return static_cast<std::int64_t>(kLimit);
  return static_cast<std::int64_t>(scaled);
}

std::size_t clamp_coord(std::int64_t c, std::size_t count) noexcept {
  return c <= 0 ? 0 : std::min(static_cast<std::size_t>(c), count - 1);
}

}  // namespace

SpatialIndex::SpatialIndex(PointView points) {
  const std::size_t n = points.size();
  if (n == 0) return;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("SpatialIndex: more than 2^32 - 1 points");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Vec2 lo{kInf, kInf};
  Vec2 hi{-kInf, -kInf};
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = points[i];
    if (std::isfinite(p.x)) {
      lo.x = std::min(lo.x, p.x);
      hi.x = std::max(hi.x, p.x);
    }
    if (std::isfinite(p.y)) {
      lo.y = std::min(lo.y, p.y);
      hi.y = std::max(hi.y, p.y);
    }
  }
  if (lo.x > hi.x) lo.x = hi.x = 0.0;  // no finite x at all
  if (lo.y > hi.y) lo.y = hi.y = 0.0;

  // About one point per cell over the box, and at most n cells along its
  // longer side, so the grid stays O(n) for a line of points too. A single
  // point or a coincident cloud gets one cell; so does a box whose side or
  // area overflows: its cell is infinite, and every coordinate, the
  // infinite and NaN ones included, clamps into cell 0.
  const double width = hi.x - lo.x;
  const double height = hi.y - lo.y;
  const double count = static_cast<double>(n);
  cell_ = std::max(std::max(width, height) / count, std::sqrt(width * height / count));
  if (!(cell_ > 0.0)) cell_ = 1.0;
  inv_cell_ = 1.0 / cell_;
  lo_ = lo;
  magnitude_ = std::max({std::abs(lo.x), std::abs(lo.y), std::abs(hi.x), std::abs(hi.y)});
  nx_ = clamp_coord(grid_coord(hi.x, lo.x, inv_cell_), n + 1) + 1;
  ny_ = clamp_coord(grid_coord(hi.y, lo.y, inv_cell_), n + 1) + 1;

  // Counting sort: count per cell, prefix-sum to cell starts, then place the
  // ids in ascending order, which leaves each cell's run in id order.
  // Placing advances every start to its cell's end; one shift restores them.
  const auto cell_of = [&](Vec2 p) { return row_of(p.y) * nx_ + column_of(p.x); };
  offsets_.assign(nx_ * ny_ + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++offsets_[cell_of(points[i]) + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ids_[offsets_[cell_of(points[i])]++] = static_cast<Id>(i);
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

void SpatialIndex::check_count(const PointView& points) const {
  if (points.size() != ids_.size()) {
    throw std::invalid_argument("SpatialIndex: queried with " + std::to_string(points.size()) +
                                " points, built over " + std::to_string(ids_.size()));
  }
}

std::size_t SpatialIndex::column_of(double x) const noexcept {
  return clamp_coord(grid_coord(x, lo_.x, inv_cell_), nx_);
}

std::size_t SpatialIndex::row_of(double y) const noexcept {
  return clamp_coord(grid_coord(y, lo_.y, inv_cell_), ny_);
}

std::vector<SpatialIndex::Id> SpatialIndex::query_disc(PointView points, Vec2 center,
                                                       double radius_m) const {
  std::vector<Id> out;
  query_disc(points, center, radius_m, out);
  return out;
}

void SpatialIndex::query_disc(PointView points, Vec2 center, double radius_m,
                              std::vector<Id>& out) const {
  check_count(points);
  out.clear();
  if (!(radius_m >= 0.0) || ids_.empty()) return;  // rejects NaN too

  // center -/+ radius can round across a cell edge and drop a point at
  // exactly the radius, so the rectangle (only) is widened by the rounding
  // slack; membership stays the exact distance test below. The rectangle is
  // clamped into the grid like the points were, so a member's cell is in it
  // however far the query or the point lies outside the grid.
  const double reach = widened_radius(radius_m, center);
  const std::size_t first_column = column_of(center.x - reach);
  const std::size_t last_column = column_of(center.x + reach);
  const std::size_t last_row = row_of(center.y + reach);
  for (std::size_t y = row_of(center.y - reach); y <= last_row; ++y) {
    // The row's cells [first_column, last_column] are one run of ids.
    const std::size_t end = offsets_[y * nx_ + last_column + 1];
    for (std::size_t i = offsets_[y * nx_ + first_column]; i < end; ++i) {
      if (points[ids_[i]].distance_to(center) <= radius_m) out.push_back(ids_[i]);
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<SpatialIndex::Id> SpatialIndex::nearest_k(PointView points, Vec2 center,
                                                      std::size_t k) const {
  check_count(points);
  std::vector<Id> out;
  if (k == 0 || ids_.empty()) return out;

  // Max-heap of the k best (distance, id) pairs seen so far; front() is the
  // current k-th best, the distance every unscanned cell must beat.
  std::vector<std::pair<double, Id>> best;
  best.reserve(std::min(k, ids_.size()));
  const auto scan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::pair<double, Id> cand{points[ids_[i]].distance_to(center), ids_[i]};
      if (best.size() < k) {
        best.push_back(cand);
        std::push_heap(best.begin(), best.end());
      } else if (cand < best.front()) {
        std::pop_heap(best.begin(), best.end());
        best.back() = cand;
        std::push_heap(best.begin(), best.end());
      }
    }
  };

  if (2 * k >= ids_.size()) {
    // The answer covers (most of) the index: any traversal degenerates to a
    // full scan, so scan without the walk's bookkeeping.
    scan(0, ids_.size());
  } else {
    // Chebyshev rings of cells around the query's cell, each clipped to the
    // grid; a center outside the grid starts at the first ring that touches
    // it. Every point in ring r lies at least r-1 whole cells from the
    // center along some axis, so once (r-1)*cell beats the k-th distance no
    // later ring can contribute. A strict beat leaves exact ties to the
    // final (distance, id) order. Bucketing rounds (v - lo_) * inv_cell_
    // relative to |v - lo_|, which |center| + 3 * magnitude_ bounds for the
    // center and every indexed point alike, so the bound is shaved at that
    // magnitude.
    const Vec2 scale{std::max(std::abs(center.x), std::abs(center.y)) + 3.0 * magnitude_, 0.0};
    const auto beaten = [&](double bound) {
      return best.size() == k && shaved_bound(bound, scale) > best.front().first;
    };
    const std::int64_t cx = grid_coord(center.x, lo_.x, inv_cell_);
    const std::int64_t cy = grid_coord(center.y, lo_.y, inv_cell_);
    const auto last_x = static_cast<std::int64_t>(nx_) - 1;
    const auto last_y = static_cast<std::int64_t>(ny_) - 1;
    const std::int64_t first_ring =
        std::max({std::int64_t{0}, -cx, cx - last_x, -cy, cy - last_y});
    const std::int64_t last_ring = std::max({cx, last_x - cx, cy, last_y - cy});
    // Ids of cells [x_lo, x_hi] of row y: one contiguous run.
    const auto scan_cells = [&](std::int64_t y, std::int64_t x_lo, std::int64_t x_hi) {
      const std::size_t row = static_cast<std::size_t>(y) * nx_;
      scan(offsets_[row + static_cast<std::size_t>(x_lo)],
           offsets_[row + static_cast<std::size_t>(x_hi) + 1]);
    };
    for (std::int64_t r = first_ring; r <= last_ring; ++r) {
      if (r > 0 && beaten(static_cast<double>(r - 1) * cell_)) break;
      // Ring r inside the grid: its rows y = cy -/+ r span [x_lo, x_hi],
      // its columns x = cx -/+ r span [y_lo, y_hi] (the rows own the
      // corners). r >= first_ring keeps every row span non-empty.
      const std::int64_t x_lo = std::max(cx - r, std::int64_t{0});
      const std::int64_t x_hi = std::min(cx + r, last_x);
      if (cy - r >= 0) scan_cells(cy - r, x_lo, x_hi);
      if (r == 0) continue;
      if (cy + r <= last_y) scan_cells(cy + r, x_lo, x_hi);
      const std::int64_t y_lo = std::max(cy - r + 1, std::int64_t{0});
      const std::int64_t y_hi = std::min(cy + r - 1, last_y);
      if (cx - r >= 0) {
        for (std::int64_t y = y_lo; y <= y_hi; ++y) scan_cells(y, cx - r, cx - r);
      }
      if (cx + r <= last_x) {
        for (std::int64_t y = y_lo; y <= y_hi; ++y) scan_cells(y, cx + r, cx + r);
      }
    }
  }

  std::sort_heap(best.begin(), best.end());
  out.reserve(best.size());
  for (const auto& [dist, id] : best) out.push_back(id);
  return out;
}

}  // namespace mm::geo
