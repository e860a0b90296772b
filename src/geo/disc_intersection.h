// Exact intersection region of k discs.
//
// The disc-intersection approach is the core of all three localization
// algorithms in the paper (M-Loc, AP-Rad, AP-Loc). The intersection of discs
// is a convex region bounded by circular arcs; this class computes that
// boundary exactly, and from it the region's area (Green's theorem, closed
// form per arc) and, when asked, its centroid (per-arc Gauss-Legendre
// quadrature). The paper's M-Loc pseudo-code approximates the centroid by
// averaging the arc *vertices*; `vertices()` exposes those so the faithful
// variant and the exact variant can be compared (see bench_ablation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/circle.h"
#include "geo/vec2.h"

namespace mm::geo {

/// True iff some pair (i, j) of discs is disjoint under `eps`, i.e.
/// |c_i - c_j| > r_i + r_j + eps. Decision-identical to testing
/// Circle::disjoint_from-style predicates over every pair (asserted by a
/// randomized oracle test): the comparison runs on squared values, a monotone
/// transform of both sides, the bounding-box early-outs of the scalar
/// predicate are implied by it, and a negative reach (degenerate eps) is
/// tested explicitly before squaring. The early-exit pass of
/// DiscIntersection::compute runs through this.
[[nodiscard]] bool any_pair_disjoint(std::span<const Circle> discs, double eps);

/// One boundary arc: the piece of circle `circle_index` from `theta_begin` to
/// `theta_end` traversed counter-clockwise (theta_end > theta_begin; the span
/// never exceeds 2*pi). A full-circle boundary is a single arc of span 2*pi.
struct BoundaryArc {
  std::size_t circle_index = 0;
  double theta_begin = 0.0;
  double theta_end = 0.0;

  [[nodiscard]] double span() const noexcept { return theta_end - theta_begin; }
};

class DiscIntersection {
 public:
  /// An empty region over no discs; recompute() fills it.
  DiscIntersection() = default;

  /// Computes the intersection of all discs. Requires at least one disc.
  /// Throws std::invalid_argument on an empty input or a non-positive radius.
  static DiscIntersection compute(std::span<const Circle> discs);

  /// compute() in place: the same region, bit for bit, built in this
  /// object's own buffers (discs, arcs and two interval lists), so a caller
  /// that keeps one region stops allocating once those have grown to its
  /// largest input. `discs` must not alias discs(). Throws as compute() does,
  /// before touching the region.
  void recompute(std::span<const Circle> discs);

  [[nodiscard]] bool empty() const noexcept { return empty_; }
  [[nodiscard]] double area() const noexcept { return area_; }
  /// Centroid of the region; only meaningful when !empty(). Every call runs
  /// one moment quadrature over the boundary arcs (16 Gauss-Legendre nodes
  /// per pi/8 of arc, two trig calls per node), so a caller that needs it
  /// twice keeps it.
  [[nodiscard]] Vec2 centroid() const;
  /// Membership test against the defining discs.
  [[nodiscard]] bool contains(Vec2 p, double eps = 1e-9) const;
  [[nodiscard]] const std::vector<BoundaryArc>& arcs() const noexcept { return arcs_; }
  [[nodiscard]] const std::vector<Circle>& discs() const noexcept { return discs_; }
  /// Arc endpoints (the Delta set of the paper's M-Loc pseudo-code), deduplicated.
  [[nodiscard]] std::vector<Vec2> vertices() const;
  /// vertices() into `out`, replacing its contents and keeping its capacity.
  void vertices_into(std::vector<Vec2>& out) const;

  /// Monte-Carlo area estimate over the same discs; used by the property
  /// tests to validate the closed-form boundary computation.
  static double monte_carlo_area(std::span<const Circle> discs, std::size_t samples,
                                 std::uint64_t seed);

 private:
  /// Angular interval [lo, hi] with 0 <= lo < hi <= 2*pi on one circle's
  /// boundary (a wrapping interval is split in two).
  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
  };

  /// Clips intervals_ (circle i's boundary still inside every disc so far)
  /// by disc j.
  void clip_by_disc(const Circle& ci, const Circle& cj);
  /// Intersects intervals_ with the (possibly wrapping) interval [lo, hi],
  /// given as any real angles, through spare_.
  void clip(double lo, double hi);
  /// Area from the closed-form per-arc terms (the centroid is on demand).
  void finalize_measures();

  std::vector<Circle> discs_;
  std::vector<BoundaryArc> arcs_;
  std::vector<Interval> intervals_;  ///< sorted, disjoint; one circle at a time
  std::vector<Interval> spare_;      ///< clip()'s output, swapped into intervals_
  bool empty_ = true;
  double area_ = 0.0;
};

}  // namespace mm::geo
