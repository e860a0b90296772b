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
  /// Computes the intersection of all discs. Requires at least one disc.
  /// Throws std::invalid_argument on an empty input or a non-positive radius.
  static DiscIntersection compute(std::span<const Circle> discs);

  [[nodiscard]] bool empty() const noexcept { return empty_; }
  /// True when the region is exactly one input disc (nested-discs case).
  [[nodiscard]] bool is_full_disc() const noexcept { return full_disc_; }
  [[nodiscard]] double area() const noexcept { return area_; }
  /// Centroid of the region; only meaningful when !empty(). A full-disc
  /// region returns its disc's centre; otherwise every call runs one moment
  /// quadrature over the boundary arcs (16 Gauss-Legendre nodes per pi/8 of
  /// arc, two trig calls per node), so a caller that needs it twice keeps it.
  [[nodiscard]] Vec2 centroid() const;
  /// Membership test against the defining discs.
  [[nodiscard]] bool contains(Vec2 p, double eps = 1e-9) const;
  [[nodiscard]] const std::vector<BoundaryArc>& arcs() const noexcept { return arcs_; }
  [[nodiscard]] const std::vector<Circle>& discs() const noexcept { return discs_; }
  /// Arc endpoints (the Delta set of the paper's M-Loc pseudo-code), deduplicated.
  [[nodiscard]] std::vector<Vec2> vertices() const;

  /// Monte-Carlo area estimate over the same discs; used by the property
  /// tests to validate the closed-form boundary computation.
  static double monte_carlo_area(std::span<const Circle> discs, std::size_t samples,
                                 std::uint64_t seed);

 private:
  DiscIntersection() = default;
  /// Decides the arcs_-empty endgame (nested discs -> one full disc, or
  /// pairwise overlap without a common point -> empty) over discs_.
  void resolve_arcless();
  /// Area from the closed-form per-arc terms (the centroid is on demand).
  void finalize_measures();

  std::vector<Circle> discs_;
  std::vector<BoundaryArc> arcs_;
  bool empty_ = true;
  bool full_disc_ = false;
  double area_ = 0.0;
};

}  // namespace mm::geo
