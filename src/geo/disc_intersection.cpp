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

/// The same angle in [0, 2*pi).
double norm_angle(double theta) {
  theta = std::fmod(theta, kTwoPi);
  if (theta < 0.0) theta += kTwoPi;
  return theta;
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
  DiscIntersection result;
  result.recompute(discs);
  return result;
}

void DiscIntersection::recompute(std::span<const Circle> discs) {
  if (discs.empty()) throw std::invalid_argument("DiscIntersection: need at least one disc");
  for (const Circle& c : discs) {
    if (!(c.radius > 0.0)) {
      throw std::invalid_argument("DiscIntersection: radii must be positive");
    }
  }

  discs_.clear();
  arcs_.clear();
  empty_ = true;
  area_ = 0.0;

  // Early exit: any two discs disjoint => empty intersection. The squared
  // scan makes the same decision the scalar predicate would for every pair,
  // so which path detects it cannot change the result.
  if (any_pair_disjoint(discs, -kEps)) {
    discs_.assign(discs.begin(), discs.end());
    return;
  }

  // Prune redundant discs: if disc i is contained in disc j, disc j adds no
  // constraint (for exact duplicates keep only the first). This also removes
  // the ambiguity that would otherwise double-count identical boundaries.
  for (std::size_t j = 0; j < discs.size(); ++j) {
    bool keep = true;
    for (std::size_t i = 0; i < discs.size() && keep; ++i) {
      if (i == j) continue;
      if (inside_prefiltered(discs[i], discs[j], kEps) &&
          (!inside_prefiltered(discs[j], discs[i], kEps) || i < j)) {
        keep = false;
      }
    }
    if (keep) discs_.push_back(discs[j]);
  }

  // For every circle, find the angular intervals of its boundary lying inside
  // all other discs. Those intervals are exactly the region's boundary arcs.
  for (std::size_t i = 0; i < discs_.size(); ++i) {
    intervals_.assign(1, {0.0, kTwoPi});
    for (std::size_t j = 0; j < discs_.size() && !intervals_.empty(); ++j) {
      if (j == i) continue;
      clip_by_disc(discs_[i], discs_[j]);
    }
    // Re-join an interval pair split at the 0/2*pi cut so arc endpoints are
    // genuine circle-circle intersection vertices (emit it as a single arc
    // with a negative begin; all downstream trigonometry is periodic).
    if (intervals_.size() >= 2 && intervals_.front().lo < kMinArcSpan &&
        intervals_.back().hi > kTwoPi - kMinArcSpan) {
      intervals_.front().lo = intervals_.back().lo - kTwoPi;
      intervals_.pop_back();
    }
    for (const Interval& iv : intervals_) arcs_.push_back({i, iv.lo, iv.hi});
  }

  // No arc means no common point: the discs overlap pairwise but not all
  // at once. (Nested discs keep an arc: a disc inside every other one is
  // never clipped, so its whole circle survives as the boundary.)
  if (arcs_.empty()) return;

  empty_ = false;
  finalize_measures();
}

void DiscIntersection::clip_by_disc(const Circle& ci, const Circle& cj) {
  const Vec2 delta = cj.center - ci.center;
  const double d = delta.norm();
  if (d + ci.radius <= cj.radius + kEps) {
    return;  // circle i lies fully inside disc j: no constraint
  }
  if (d + cj.radius <= ci.radius - kEps || d < kEps) {
    // Disc j strictly inside disc i (or concentric smaller): boundary of
    // circle i is entirely outside disc j.
    intervals_.clear();
    return;
  }
  const double alpha = delta.angle();
  const double cos_half =
      (d * d + ci.radius * ci.radius - cj.radius * cj.radius) / (2.0 * d * ci.radius);
  const double half = std::acos(std::clamp(cos_half, -1.0, 1.0));
  clip(alpha - half, alpha + half);
}

void DiscIntersection::clip(double lo, double hi) {
  lo = norm_angle(lo);
  hi = norm_angle(hi);
  std::array<Interval, 2> allowed;
  std::size_t allowed_count = 1;
  if (lo <= hi) {
    allowed[0] = {lo, hi};
  } else {  // wraps through 0
    allowed[0] = {0.0, hi};
    allowed[1] = {lo, kTwoPi};
    allowed_count = 2;
  }
  spare_.clear();
  for (const Interval& have : intervals_) {
    for (std::size_t k = 0; k < allowed_count; ++k) {
      const double a = std::max(have.lo, allowed[k].lo);
      const double b = std::min(have.hi, allowed[k].hi);
      if (b - a > kMinArcSpan) spare_.push_back({a, b});
    }
  }
  std::sort(spare_.begin(), spare_.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  intervals_.swap(spare_);
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
  std::vector<Vec2> out;
  vertices_into(out);
  return out;
}

void DiscIntersection::vertices_into(std::vector<Vec2>& out) const {
  out.clear();
  // Each endpoint in arc order, skipped when an earlier one (an endpoint
  // shared between adjacent arcs) lies within 1e-7.
  const auto add_unique = [&out](const Vec2& p) {
    const bool seen = std::any_of(out.begin(), out.end(), [&](const Vec2& q) {
      return p.distance_to(q) < 1e-7;
    });
    if (!seen) out.push_back(p);
  };
  for (const BoundaryArc& arc : arcs_) {
    if (arc.span() >= kTwoPi - kMinArcSpan) continue;  // full circle: no vertices
    const Circle& c = discs_[arc.circle_index];
    add_unique(c.point_at(arc.theta_begin));
    add_unique(c.point_at(arc.theta_end));
  }
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
