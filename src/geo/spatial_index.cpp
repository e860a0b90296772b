#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace mm::geo {

namespace {

/// floor(v / cell) as an int64 cell coordinate. std::floor keeps the
/// negative side correct (-0.3 -> cell -1, not 0). Clamping guards the cast
/// against extreme coordinate/cell ratios; it is monotone, so insertion and
/// query traversal agree on which (possibly saturated) cell a point is in.
std::int64_t cell_coord(double v, double cell) noexcept {
  constexpr double kLimit = 1099511627776.0;  // 2^40 cells
  const double scaled = std::floor(v / cell);
  if (!(scaled > -kLimit)) return -static_cast<std::int64_t>(kLimit);  // also NaN
  if (scaled > kLimit) return static_cast<std::int64_t>(kLimit);
  return static_cast<std::int64_t>(scaled);
}

}  // namespace

std::size_t SpatialIndex::CellHasher::operator()(const Cell& c) const noexcept {
  return static_cast<std::size_t>(util::hash_combine(static_cast<std::uint64_t>(c.x),
                                                     static_cast<std::uint64_t>(c.y)));
}

SpatialIndex::SpatialIndex(double cell_size_m) : cell_size_(cell_size_m) {
  if (!(cell_size_m > 0.0) || !std::isfinite(cell_size_m)) {
    throw std::invalid_argument("SpatialIndex: cell size must be positive and finite");
  }
}

SpatialIndex SpatialIndex::build_from(std::span<const Vec2> points, double cell_size_m) {
  double cell = cell_size_m;
  if (!(cell > 0.0)) {
    // ~1 point per cell over the bounding box; degenerate (empty, coincident)
    // inputs fall back to a unit cell.
    double lo_x = 0.0, lo_y = 0.0, hi_x = 0.0, hi_y = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i == 0) {
        lo_x = hi_x = points[i].x;
        lo_y = hi_y = points[i].y;
      } else {
        lo_x = std::min(lo_x, points[i].x);
        hi_x = std::max(hi_x, points[i].x);
        lo_y = std::min(lo_y, points[i].y);
        hi_y = std::max(hi_y, points[i].y);
      }
    }
    const double area = (hi_x - lo_x) * (hi_y - lo_y);
    cell = points.empty() ? 1.0 : std::sqrt(area / static_cast<double>(points.size()));
    if (!(cell > 1e-6) || !std::isfinite(cell)) cell = 1.0;
  }
  SpatialIndex index(cell);
  for (std::size_t i = 0; i < points.size(); ++i) index.insert(i, points[i]);
  return index;
}

SpatialIndex::Cell SpatialIndex::cell_of(Vec2 p) const noexcept {
  return {cell_coord(p.x, cell_size_), cell_coord(p.y, cell_size_)};
}

void SpatialIndex::insert(Id id, Vec2 p) {
  if (!points_.emplace(id, p).second) {
    throw std::invalid_argument("SpatialIndex::insert: duplicate id");
  }
  const Cell c = cell_of(p);
  cells_[c].push_back({id, p});
  if (!has_bounds_) {
    cell_lo_ = cell_hi_ = c;
    has_bounds_ = true;
  } else {
    cell_lo_.x = std::min(cell_lo_.x, c.x);
    cell_lo_.y = std::min(cell_lo_.y, c.y);
    cell_hi_.x = std::max(cell_hi_.x, c.x);
    cell_hi_.y = std::max(cell_hi_.y, c.y);
  }
}

bool SpatialIndex::erase(Id id) {
  const auto it = points_.find(id);
  if (it == points_.end()) return false;
  const Cell c = cell_of(it->second);
  const auto cell_it = cells_.find(c);
  if (cell_it != cells_.end()) {
    auto& bucket = cell_it->second;
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [&](const Entry& e) { return e.id == id; }),
                 bucket.end());
    if (bucket.empty()) cells_.erase(cell_it);
  }
  points_.erase(it);
  return true;
}

void SpatialIndex::clear() {
  cells_.clear();
  points_.clear();
  has_bounds_ = false;
}

std::vector<SpatialIndex::Id> SpatialIndex::query_disc(Vec2 center, double radius_m) const {
  std::vector<Id> out;
  query_disc(center, radius_m, out);
  return out;
}

void SpatialIndex::query_disc(Vec2 center, double radius_m, std::vector<Id>& out) const {
  out.clear();
  if (!(radius_m >= 0.0) || points_.empty()) return;  // rejects NaN too

  // center -/+ radius can round across a cell edge and drop a point at
  // exactly the radius, so the rectangle (only) is widened by the rounding
  // slack; membership stays the exact distance test below.
  const double reach = widened_radius(radius_m, center);
  const std::int64_t cx_lo = cell_coord(center.x - reach, cell_size_);
  const std::int64_t cx_hi = cell_coord(center.x + reach, cell_size_);
  const std::int64_t cy_lo = cell_coord(center.y - reach, cell_size_);
  const std::int64_t cy_hi = cell_coord(center.y + reach, cell_size_);
  const auto span_x = static_cast<std::uint64_t>(cx_hi - cx_lo + 1);
  const auto span_y = static_cast<std::uint64_t>(cy_hi - cy_lo + 1);

  // A huge radius over a small index degenerates to visiting every occupied
  // cell instead of the whole rectangle. Either traversal yields the same
  // result: the final ascending-id sort canonicalizes the order.
  if (span_x > cells_.size() || span_y > cells_.size() ||
      span_x * span_y > cells_.size()) {
    for (const auto& [cell, bucket] : cells_) {
      if (cell.x < cx_lo || cell.x > cx_hi || cell.y < cy_lo || cell.y > cy_hi) continue;
      for (const Entry& e : bucket) {
        if (e.p.distance_to(center) <= radius_m) out.push_back(e.id);
      }
    }
  } else {
    for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
        const auto it = cells_.find({cx, cy});
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (e.p.distance_to(center) <= radius_m) out.push_back(e.id);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<SpatialIndex::Id> SpatialIndex::query_range(Vec2 lo, Vec2 hi) const {
  std::vector<Id> out;
  query_range(lo, hi, out);
  return out;
}

void SpatialIndex::query_range(Vec2 lo, Vec2 hi, std::vector<Id>& out) const {
  out.clear();
  if (points_.empty() || !(lo.x <= hi.x) || !(lo.y <= hi.y)) return;

  const std::int64_t cx_lo = cell_coord(lo.x, cell_size_);
  const std::int64_t cx_hi = cell_coord(hi.x, cell_size_);
  const std::int64_t cy_lo = cell_coord(lo.y, cell_size_);
  const std::int64_t cy_hi = cell_coord(hi.y, cell_size_);
  const auto span_x = static_cast<std::uint64_t>(cx_hi - cx_lo + 1);
  const auto span_y = static_cast<std::uint64_t>(cy_hi - cy_lo + 1);

  const auto in_rect = [&](Vec2 p) {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  };
  if (span_x > cells_.size() || span_y > cells_.size() ||
      span_x * span_y > cells_.size()) {
    for (const auto& [cell, bucket] : cells_) {
      if (cell.x < cx_lo || cell.x > cx_hi || cell.y < cy_lo || cell.y > cy_hi) continue;
      for (const Entry& e : bucket) {
        if (in_rect(e.p)) out.push_back(e.id);
      }
    }
  } else {
    for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
        const auto it = cells_.find({cx, cy});
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (in_rect(e.p)) out.push_back(e.id);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<SpatialIndex::Id> SpatialIndex::nearest_k(Vec2 center, std::size_t k) const {
  std::vector<Id> out;
  if (k == 0 || points_.empty()) return out;

  // Max-heap of the k best (distance, id) pairs seen so far; front() is the
  // current k-th best, the distance every unscanned cell must beat.
  std::vector<std::pair<double, Id>> best;
  best.reserve(std::min(k, points_.size()));
  const auto scan_bucket = [&](const std::vector<Entry>& bucket) {
    for (const Entry& e : bucket) {
      const std::pair<double, Id> cand{e.p.distance_to(center), e.id};
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
  // True when every point at least `bound` away loses to the current k-th
  // best. A strict beat leaves exact ties to the final (distance, id) order.
  const auto beaten = [&](double bound) {
    return best.size() == k && shaved_bound(bound, center) > best.front().first;
  };

  if (2 * k >= points_.size()) {
    // The answer covers (most of) the index: any traversal degenerates to a
    // full scan, so scan without the walk's bookkeeping.
    for (const auto& [cell, bucket] : cells_) scan_bucket(bucket);
  } else {
    // Chebyshev rings of cells around the query's cell, each clipped to the
    // occupied bounding box; a center far outside the box starts at the
    // first ring that touches it. Every point in ring r lies at least r-1
    // whole cells from the center along some axis, so once (r-1)*cell beats
    // the k-th distance no later ring can contribute.
    const Cell c0 = cell_of(center);
    const std::int64_t first_ring =
        std::max({std::int64_t{0}, cell_lo_.x - c0.x, c0.x - cell_hi_.x, cell_lo_.y - c0.y,
                  c0.y - cell_hi_.y});
    const std::int64_t last_ring =
        std::max({c0.x - cell_lo_.x, cell_hi_.x - c0.x, c0.y - cell_lo_.y, cell_hi_.y - c0.y});
    const auto scan_cell = [&](std::int64_t x, std::int64_t y) {
      const auto it = cells_.find({x, y});
      if (it != cells_.end()) scan_bucket(it->second);
    };
    // When the rings would visit more cells than the index occupies, the
    // grid is sparse relative to the search (tiny cells, a wide empty gulf
    // between the query and the answer) and cell-by-cell walking loses to
    // ranking the occupied cells. Hand over to that fallback before such a
    // ring — same bounds, same predicates, so the same bits either way.
    const std::uint64_t flood_limit = 2 * cells_.size() + 64;
    std::uint64_t walked = 0;
    std::int64_t r = first_ring;
    bool flooded = false;
    for (; r <= last_ring; ++r) {
      if (r > 0 && beaten(static_cast<double>(r - 1) * cell_size_)) break;
      // Ring r inside the box: its rows y = c0.y -/+ r span [x_lo, x_hi],
      // its columns x = c0.x -/+ r span [y_lo, y_hi] (the rows own the
      // corners). r >= first_ring keeps every row span non-empty.
      const std::int64_t x_lo = std::max(c0.x - r, cell_lo_.x);
      const std::int64_t x_hi = std::min(c0.x + r, cell_hi_.x);
      const std::int64_t y_lo = std::max(c0.y - r + 1, cell_lo_.y);
      const std::int64_t y_hi = std::min(c0.y + r - 1, cell_hi_.y);
      const bool top = c0.y - r >= cell_lo_.y;
      const bool bottom = r > 0 && c0.y + r <= cell_hi_.y;
      const bool left = r > 0 && c0.x - r >= cell_lo_.x;
      const bool right = r > 0 && c0.x + r <= cell_hi_.x;
      const auto row_cells = static_cast<std::uint64_t>(x_hi - x_lo + 1);
      const auto col_cells = static_cast<std::uint64_t>(std::max<std::int64_t>(0, y_hi - y_lo + 1));
      walked += row_cells * (top + bottom) + col_cells * (left + right);
      if (walked > flood_limit) {
        flooded = true;
        break;
      }
      if (top) {
        for (std::int64_t x = x_lo; x <= x_hi; ++x) scan_cell(x, c0.y - r);
      }
      if (bottom) {
        for (std::int64_t x = x_lo; x <= x_hi; ++x) scan_cell(x, c0.y + r);
      }
      if (left) {
        for (std::int64_t y = y_lo; y <= y_hi; ++y) scan_cell(c0.x - r, y);
      }
      if (right) {
        for (std::int64_t y = y_lo; y <= y_hi; ++y) scan_cell(c0.x + r, y);
      }
    }
    if (flooded) {
      // Rank the occupied cells of rings r and beyond by their per-axis
      // lower bound, hypot(max(0,dx-1), max(0,dy-1)) * cell, and scan them
      // in ascending order until the k-th distance beats the next bound.
      // The walked rings' points are already in the heap.
      const auto gap = [&](std::int64_t d) {
        return d > 0 ? static_cast<double>(d - 1) * cell_size_ : 0.0;
      };
      std::vector<std::pair<double, const std::vector<Entry>*>> ranked;
      for (const auto& [cell, bucket] : cells_) {
        const std::int64_t dx = cell.x > c0.x ? cell.x - c0.x : c0.x - cell.x;
        const std::int64_t dy = cell.y > c0.y ? cell.y - c0.y : c0.y - cell.y;
        if (std::max(dx, dy) < r) continue;
        ranked.emplace_back(std::hypot(gap(dx), gap(dy)), &bucket);
      }
      std::sort(ranked.begin(), ranked.end());
      for (const auto& [cell_bound, bucket] : ranked) {
        if (beaten(cell_bound)) break;
        scan_bucket(*bucket);
      }
    }
  }

  std::sort_heap(best.begin(), best.end());
  out.reserve(best.size());
  for (const auto& [dist, id] : best) out.push_back(id);
  return out;
}

}  // namespace mm::geo
