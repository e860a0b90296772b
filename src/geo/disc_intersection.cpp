#include "geo/disc_intersection.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/rng.h"

namespace mm::geo {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kEps = 1e-9;
constexpr double kMinArcSpan = 1e-10;

/// Containment test equivalent to a.inside_of(b, eps), same treatment as
/// any_pair_disjoint: a lies inside b iff |a.center - b.center| <=
/// b.radius - a.radius + eps.
bool inside_prefiltered(const Circle& a, const Circle& b, double eps) {
  const double slack = b.radius - a.radius + eps;
  if (slack < 0.0) return false;  // a is too big to fit regardless of position
  const double dx = std::abs(a.center.x - b.center.x);
  const double dy = std::abs(a.center.y - b.center.y);
  if (dx > slack || dy > slack) return false;
  return dx * dx + dy * dy <= slack * slack;
}

/// Angular interval [lo, hi] with 0 <= lo < hi <= 2*pi (wrapping intervals
/// are split by the caller before entering an IntervalSet).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Sorted, disjoint set of angular intervals on one circle's boundary.
class IntervalSet {
 public:
  static IntervalSet full() {
    IntervalSet s;
    s.intervals_.push_back({0.0, kTwoPi});
    return s;
  }

  [[nodiscard]] bool empty() const noexcept { return intervals_.empty(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const noexcept { return intervals_; }

  /// Intersect with the (possibly wrapping) interval [lo, hi] given in any
  /// real-valued angle; normalizes and splits internally.
  void clip(double lo, double hi) {
    std::vector<Interval> allowed;
    lo = norm_angle(lo);
    hi = norm_angle(hi);
    if (lo <= hi) {
      allowed.push_back({lo, hi});
    } else {  // wraps through 0
      allowed.push_back({0.0, hi});
      allowed.push_back({lo, kTwoPi});
    }
    std::vector<Interval> result;
    for (const Interval& have : intervals_) {
      for (const Interval& keep : allowed) {
        const double a = std::max(have.lo, keep.lo);
        const double b = std::min(have.hi, keep.hi);
        if (b - a > kMinArcSpan) result.push_back({a, b});
      }
    }
    std::sort(result.begin(), result.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    intervals_ = std::move(result);
  }

  void clear() { intervals_.clear(); }

  static double norm_angle(double theta) {
    theta = std::fmod(theta, kTwoPi);
    if (theta < 0.0) theta += kTwoPi;
    return theta;
  }

 private:
  std::vector<Interval> intervals_;
};

/// Clips circle `i`'s boundary interval set by the constraint of disc `j`.
void clip_circle_by_disc(IntervalSet& set, const Circle& ci, const Circle& cj) {
  const Vec2 delta = cj.center - ci.center;
  const double d = delta.norm();
  if (d + ci.radius <= cj.radius + kEps) {
    return;  // circle i lies fully inside disc j: no constraint
  }
  if (d + cj.radius <= ci.radius - kEps || d < kEps) {
    // Disc j strictly inside disc i (or concentric smaller): boundary of
    // circle i is entirely outside disc j.
    set.clear();
    return;
  }
  const double alpha = delta.angle();
  const double cos_half =
      (d * d + ci.radius * ci.radius - cj.radius * cj.radius) / (2.0 * d * ci.radius);
  const double half = std::acos(std::clamp(cos_half, -1.0, 1.0));
  set.clip(alpha - half, alpha + half);
}

/// Re-joins an interval pair split at the 0/2*pi cut so arc endpoints are
/// genuine circle-circle intersection vertices (emit it as a single arc with
/// a negative begin; all downstream trigonometry is periodic).
std::vector<Interval> rejoin_wrap(std::vector<Interval> ivs) {
  if (ivs.size() >= 2 && ivs.front().lo < kMinArcSpan &&
      ivs.back().hi > kTwoPi - kMinArcSpan) {
    ivs.front().lo = ivs.back().lo - kTwoPi;
    ivs.pop_back();
  }
  return ivs;
}

/// Closed-form contribution of one CCW arc to (1/2) * contour integral of
/// (x dy - y dx) — i.e., to the region's area.
double arc_area_term(const Circle& c, double t0, double t1) {
  const double r = c.radius;
  return 0.5 * (r * r * (t1 - t0) + r * c.center.x * (std::sin(t1) - std::sin(t0)) +
                r * c.center.y * (std::cos(t0) - std::cos(t1)));
}

/// 16-point Gauss-Legendre nodes/weights on [-1, 1].
constexpr std::array<double, 8> kGlNodes = {
    0.0950125098376374, 0.2816035507792589, 0.4580167776572274, 0.6178762444026438,
    0.7554044083550030, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499};
constexpr std::array<double, 8> kGlWeights = {
    0.1894506104550685, 0.1826034150449236, 0.1691565193950025, 0.1495959888165767,
    0.1246289712555339, 0.0951585116824928, 0.0622535239386479, 0.0271524594117541};

/// Numeric contribution of one arc to the first-moment contour integrals:
///   Mx = contour integral of (x^2 / 2) dy,   My = contour integral of -(y^2 / 2) dx.
void arc_moment_terms(const Circle& c, double t0, double t1, double& mx, double& my) {
  // Subdivide so each quadrature panel spans at most pi/8; 16-point
  // Gauss-Legendre is then accurate to ~1e-15 for these trigonometric
  // integrands (a single panel over a full circle is ~2% off).
  const int segments = std::max(1, static_cast<int>(std::ceil((t1 - t0) / (std::numbers::pi / 8.0))));
  const double step = (t1 - t0) / segments;
  for (int s = 0; s < segments; ++s) {
    const double a = t0 + step * s;
    const double b = a + step;
    const double mid = 0.5 * (a + b);
    const double half = 0.5 * (b - a);
    auto accumulate = [&](double theta, double w) {
      const double x = c.center.x + c.radius * std::cos(theta);
      const double y = c.center.y + c.radius * std::sin(theta);
      const double dx = -c.radius * std::sin(theta);
      const double dy = c.radius * std::cos(theta);
      mx += w * half * (x * x * 0.5) * dy;
      my += w * half * (-(y * y) * 0.5) * dx;
    };
    for (std::size_t i = 0; i < kGlNodes.size(); ++i) {
      accumulate(mid + half * kGlNodes[i], kGlWeights[i]);
      accumulate(mid - half * kGlNodes[i], kGlWeights[i]);
    }
  }
}

}  // namespace

bool any_pair_disjoint(std::span<const Circle> discs, double eps) {
  for (std::size_t i = 0; i + 1 < discs.size(); ++i) {
    const Circle& a = discs[i];
    // Branch-free inner loop: accumulate how many pairs exceed their reach.
    // A disjoint pair anywhere means an empty intersection, so existence is
    // all compute() needs — which pair fired never affects the result.
    std::size_t found = 0;
    for (std::size_t j = i + 1; j < discs.size(); ++j) {
      const double dx = discs[j].center.x - a.center.x;
      const double dy = discs[j].center.y - a.center.y;
      const double reach = discs[j].radius + a.radius + eps;
      // A negative reach means nothing can touch (the scalar predicate's
      // degenerate-eps early-out); squaring would lose its sign, so test it
      // explicitly — bitwise-or keeps the loop branch-free.
      found += static_cast<std::size_t>((reach < 0.0) |
                                        (dx * dx + dy * dy > reach * reach));
    }
    if (found != 0) return true;
  }
  return false;
}

DiscIntersection DiscIntersection::compute(std::span<const Circle> discs) {
  if (discs.empty()) throw std::invalid_argument("DiscIntersection: need at least one disc");
  for (const Circle& c : discs) {
    if (!(c.radius > 0.0)) {
      throw std::invalid_argument("DiscIntersection: radii must be positive");
    }
  }

  DiscIntersection result;

  // Early exit: any two discs disjoint => empty intersection. The squared
  // scan makes the same decision the scalar predicate would for every pair,
  // so which path detects it cannot change the result.
  if (any_pair_disjoint(discs, -kEps)) {
    result.empty_ = true;
    result.discs_.assign(discs.begin(), discs.end());
    return result;
  }

  // Prune redundant discs: if disc i is contained in disc j, disc j adds no
  // constraint (for exact duplicates keep only the first). This also removes
  // the ambiguity that would otherwise double-count identical boundaries.
  std::vector<bool> keep(discs.size(), true);
  for (std::size_t j = 0; j < discs.size(); ++j) {
    for (std::size_t i = 0; i < discs.size() && keep[j]; ++i) {
      if (i == j) continue;
      if (inside_prefiltered(discs[i], discs[j], kEps) &&
          (!inside_prefiltered(discs[j], discs[i], kEps) || i < j)) {
        keep[j] = false;
      }
    }
  }
  for (std::size_t i = 0; i < discs.size(); ++i) {
    if (keep[i]) result.discs_.push_back(discs[i]);
  }
  const std::span<const Circle> pruned{result.discs_};
  discs = pruned;

  // For every circle, find the angular intervals of its boundary lying inside
  // all other discs. Those intervals are exactly the region's boundary arcs.
  for (std::size_t i = 0; i < discs.size(); ++i) {
    IntervalSet set = IntervalSet::full();
    for (std::size_t j = 0; j < discs.size() && !set.empty(); ++j) {
      if (j == i) continue;
      clip_circle_by_disc(set, discs[i], discs[j]);
    }
    for (const Interval& iv : rejoin_wrap(set.intervals())) {
      result.arcs_.push_back({i, iv.lo, iv.hi});
    }
  }

  if (result.arcs_.empty()) {
    result.resolve_arcless();
    return result;
  }

  result.empty_ = false;
  result.finalize_measures();
  return result;
}

void DiscIntersection::resolve_arcless() {
  // Either one disc contains the whole intersection (nested case) or the
  // intersection is empty (pairwise-overlapping but no common point).
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < discs_.size(); ++i) {
    if (discs_[i].radius < discs_[smallest].radius) smallest = i;
  }
  bool contained = true;
  for (std::size_t j = 0; j < discs_.size() && contained; ++j) {
    if (j == smallest) continue;
    contained = discs_[smallest].inside_of(discs_[j], kEps);
  }
  if (contained) {
    empty_ = false;
    full_disc_ = true;
    arcs_.clear();
    arcs_.push_back({smallest, 0.0, kTwoPi});
    area_ = discs_[smallest].area();
    return;
  }
  empty_ = true;
  arcs_.clear();
}

void DiscIntersection::finalize_measures() {
  double area = 0.0;
  for (const BoundaryArc& arc : arcs_) {
    area += arc_area_term(discs_[arc.circle_index], arc.theta_begin, arc.theta_end);
  }
  area_ = std::max(area, 0.0);
}

Vec2 DiscIntersection::centroid() const {
  if (empty_) return {};
  if (full_disc_) return discs_[arcs_.front().circle_index].center;
  if (area_ > 1e-12) {
    double mx = 0.0;
    double my = 0.0;
    for (const BoundaryArc& arc : arcs_) {
      arc_moment_terms(discs_[arc.circle_index], arc.theta_begin, arc.theta_end, mx, my);
    }
    return {mx / area_, my / area_};
  }
  // Degenerate (near-point) region: fall back to the mean of the vertices.
  const auto verts = vertices();
  Vec2 acc;
  for (const Vec2& v : verts) acc += v;
  return verts.empty() ? discs_.front().center : acc / static_cast<double>(verts.size());
}

bool DiscIntersection::contains(Vec2 p, double eps) const {
  return std::all_of(discs_.begin(), discs_.end(),
                     [&](const Circle& c) { return c.contains(p, eps); });
}

std::vector<Vec2> DiscIntersection::vertices() const {
  std::vector<Vec2> points;
  for (const BoundaryArc& arc : arcs_) {
    if (arc.span() >= kTwoPi - kMinArcSpan) continue;  // full circle: no vertices
    const Circle& c = discs_[arc.circle_index];
    points.push_back(c.point_at(arc.theta_begin));
    points.push_back(c.point_at(arc.theta_end));
  }
  // Deduplicate endpoints shared between adjacent arcs.
  std::vector<Vec2> unique;
  for (const Vec2& p : points) {
    const bool seen = std::any_of(unique.begin(), unique.end(), [&](const Vec2& q) {
      return p.distance_to(q) < 1e-7;
    });
    if (!seen) unique.push_back(p);
  }
  return unique;
}

double DiscIntersection::monte_carlo_area(std::span<const Circle> discs,
                                          std::size_t samples, std::uint64_t seed) {
  if (discs.empty() || samples == 0) return 0.0;
  // Sample inside the bounding box of the smallest disc — it contains the
  // whole intersection.
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < discs.size(); ++i) {
    if (discs[i].radius < discs[smallest].radius) smallest = i;
  }
  const Circle& box = discs[smallest];
  util::Rng rng(seed);
  std::size_t hits = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const Vec2 p{rng.uniform(box.center.x - box.radius, box.center.x + box.radius),
                 rng.uniform(box.center.y - box.radius, box.center.y + box.radius)};
    const bool inside = std::all_of(discs.begin(), discs.end(),
                                    [&](const Circle& c) { return c.contains(p, 0.0); });
    if (inside) ++hits;
  }
  const double box_area = 4.0 * box.radius * box.radius;
  return box_area * static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace mm::geo
