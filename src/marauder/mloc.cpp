#include "marauder/mloc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/disc_intersection.h"

namespace mm::marauder {

namespace {

/// Fills `result` from a non-empty intersection region (vertex average, or
/// the exact centroid where the vertex set is empty or requested).
/// `vertices` is the buffer the Delta set is built in.
void estimate_from_region(LocalizationResult& result, const geo::DiscIntersection& region,
                          const MLocOptions& options, std::vector<geo::Vec2>& vertices) {
  if (options.exact_region_centroid) {
    result.ok = true;
    result.estimate = region.centroid();
    return;
  }
  // Paper-faithful path: average of the boundary vertices Delta. It is
  // empty when one disc is nested inside all others, whose centroid is then
  // the only sensible answer.
  region.vertices_into(vertices);
  if (vertices.empty()) {
    result.ok = true;
    result.used_fallback = true;
    result.estimate = region.centroid();
    return;
  }
  geo::Vec2 acc;
  for (const geo::Vec2& v : vertices) acc += v;
  result.ok = true;
  result.estimate = acc / static_cast<double>(vertices.size());
}

/// Pairwise centre distances into scratch.dist (n*n, symmetric), computed
/// once per rejection pass. The greedy loop below runs O(n) compute() calls
/// per eviction and would otherwise re-derive all O(n^2) centre distances on
/// every most_violating_disc() call on top of that. The centres stream
/// through scratch.sx/sy first so the distance loop reads two flat arrays;
/// std::hypot keeps every entry the exact double Vec2::distance_to produces.
void fill_pairwise_distances(const std::vector<geo::Circle>& discs, MLocScratch& s) {
  const std::size_t n = discs.size();
  s.sx.resize(n);
  s.sy.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.sx[i] = discs[i].center.x;
    s.sy[i] = discs[i].center.y;
  }
  s.dist.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = std::hypot(s.sx[j] - s.sx[i], s.sy[j] - s.sy[i]);
      s.dist[i * n + j] = d;
      s.dist[j * n + i] = d;
    }
  }
}

/// Index (into `retained`) of the disc most inconsistent with the rest: the
/// one whose worst pairwise gap (centre distance minus the two radii) is
/// largest. `original` maps retained positions back to rows of `dist`
/// (stride `n`, the pre-eviction disc count).
std::size_t most_violating_disc(const std::vector<geo::Circle>& retained,
                                const std::vector<std::size_t>& original,
                                const std::vector<double>& dist, std::size_t n) {
  std::size_t worst = 0;
  double worst_gap = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < retained.size(); ++i) {
    double gap = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < retained.size(); ++j) {
      if (i == j) continue;
      const double d = dist[original[i] * n + original[j]];
      gap = std::max(gap, d - retained[i].radius - retained[j].radius);
    }
    if (gap > worst_gap) {
      worst_gap = gap;
      worst = i;
    }
  }
  return worst;
}

/// Greedy minimal-rejection pass over scratch.retained: removes up to
/// `max_outliers` discs so the intersection of the survivors is non-empty.
/// Prefers the single removal whose surviving region is tightest (most
/// information kept); when no single removal helps, evicts the most violating
/// disc and retries. Returns the number of discs removed, or nullopt if the
/// region is still empty at the budget; either way s.region is left over
/// the last set tried. All intermediates live in the scratch, so repeat
/// calls from one worker never allocate once the buffers have grown to the
/// largest Gamma.
std::optional<std::size_t> reject_outliers(MLocScratch& s, std::size_t max_outliers) {
  std::vector<geo::Circle>& retained = s.retained;
  const std::size_t n0 = retained.size();
  fill_pairwise_distances(retained, s);
  s.original.resize(n0);
  for (std::size_t i = 0; i < n0; ++i) s.original[i] = i;
  std::size_t rejected = 0;
  while (rejected < max_outliers && retained.size() > 1) {
    std::size_t best = retained.size();
    double best_area = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < retained.size(); ++i) {
      s.candidate.clear();
      for (std::size_t j = 0; j < retained.size(); ++j) {
        if (j != i) s.candidate.push_back(retained[j]);
      }
      s.region.recompute(s.candidate);
      if (!s.region.empty() && s.region.area() < best_area) {
        best = i;
        best_area = s.region.area();
      }
    }
    if (best == retained.size()) {
      best = most_violating_disc(retained, s.original, s.dist, n0);
    }
    retained.erase(retained.begin() + static_cast<std::ptrdiff_t>(best));
    s.original.erase(s.original.begin() + static_cast<std::ptrdiff_t>(best));
    ++rejected;
    s.region.recompute(retained);
    if (!s.region.empty()) return rejected;
  }
  return std::nullopt;
}

/// Per-thread scratch for the overload that doesn't take one: repeat calls
/// reuse its workspace, and the returned copy of the result is their only
/// allocation.
MLocScratch& local_scratch() {
  static thread_local MLocScratch scratch;
  return scratch;
}

}  // namespace

double intersected_area(const LocalizationResult& result) {
  if (result.discs.empty()) return 0.0;
  const auto region = geo::DiscIntersection::compute(result.discs);
  return region.empty() ? 0.0 : region.area();
}

bool region_covers(const LocalizationResult& result, geo::Vec2 point, double eps_m) {
  if (result.discs.empty()) return false;
  for (const geo::Circle& disc : result.discs) {
    if (!disc.contains(point, eps_m)) return false;
  }
  return true;
}

LocalizationResult mloc_locate(std::span<const geo::Circle> discs,
                               const MLocOptions& options) {
  return mloc_locate(discs, options, local_scratch());
}

const LocalizationResult& mloc_locate(std::span<const geo::Circle> discs,
                                      const MLocOptions& options, MLocScratch& scratch) {
  // Reset every field but keep the disc buffer's capacity.
  LocalizationResult& result = scratch.result;
  std::vector<geo::Circle> kept = std::move(result.discs);
  result = LocalizationResult{};
  result.discs = std::move(kept);
  result.method = "M-Loc";
  result.num_aps = discs.size();
  result.discs.assign(discs.begin(), discs.end());
  if (discs.empty()) return result;

  // |Gamma| = 1: the disc-intersection approach reduces to nearest-AP
  // (Section III-C.1).
  if (discs.size() == 1) {
    result.ok = true;
    result.estimate = discs.front().center;
    return result;
  }

  geo::DiscIntersection& region = scratch.region;
  region.recompute(discs);

  if (region.empty() && options.reject_outliers) {
    // Inconsistent evidence (corrupted RSSI/radius rows, ghost APs from
    // bit-flipped BSSIDs, underestimated radii): discard the fewest discs
    // that restore a non-empty intersection so the estimate degrades
    // instead of collapsing to the centroid fallback.
    scratch.retained.assign(result.discs.begin(), result.discs.end());
    if (const auto rejected = reject_outliers(scratch, options.max_outliers)) {
      result.discs_rejected = *rejected;
      result.discs = scratch.retained;
      if (result.discs.size() == 1) {
        result.ok = true;
        result.estimate = result.discs.front().center;
        return result;
      }
      region.recompute(result.discs);
    }
  }

  if (region.empty()) {
    // Inconsistent discs (underestimated radii). Fall back to the centroid
    // of AP positions so the attack still produces an answer.
    geo::Vec2 acc;
    for (const geo::Circle& disc : result.discs) acc += disc.center;
    result.ok = true;
    result.used_fallback = true;
    result.estimate = acc / static_cast<double>(result.discs.size());
    return result;
  }

  estimate_from_region(result, region, options, scratch.vertices);
  return result;
}

}  // namespace mm::marauder
