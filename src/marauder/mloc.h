// M-Loc (Section III-D): locate a mobile from the discs of its communicable
// APs when both locations and maximum transmission distances are known.
//
// The paper's pseudo-code collects every pairwise circle-circle intersection
// point that lies within all discs (the set Delta) and returns their average.
// Degenerate inputs the pseudo-code leaves open are handled explicitly:
//   * |Gamma| = 1          -> the AP's position (nearest-AP reduction);
//   * nested discs, Delta empty, non-empty region -> the region's centroid,
//     the inner disc's center up to rounding (flagged as fallback);
//   * inconsistent discs (empty intersection; possible under AP-Rad's
//     estimated radii or corrupted capture evidence) -> optionally an
//     outlier-rejection pass (drop the fewest discs that make the
//     intersection non-empty, greedily, up to `max_outliers`), else the
//     centroid of the AP positions, flagged as fallback.
// `exact_region_centroid` switches the estimate from the vertex average to
// the true centroid of the intersection region (ablation in bench_ablation);
// an AP-Loc Tracker always sets it (Tracker::from_training).
#pragma once

#include "geo/disc_intersection.h"
#include "marauder/localization.h"

namespace mm::marauder {

struct MLocOptions {
  bool exact_region_centroid = false;
  /// Graceful degradation under damaged evidence: when the discs are
  /// mutually inconsistent, discard the fewest discs that restore a
  /// non-empty intersection (RANSAC-style over Gamma) instead of collapsing
  /// straight to the centroid fallback. Rejected discs are reported in
  /// LocalizationResult::discs_rejected.
  bool reject_outliers = false;
  std::size_t max_outliers = 2;
};

/// Reusable workspace for the M-Loc hot path. Each locate_all worker and
/// each live shard keeps one, so a localization — the intersection region,
/// its vertex set, the result, and the outlier-rejection pass's
/// pairwise-distance matrix, SoA center mirror and one-removed candidate
/// sets — runs allocation-free once the buffers have grown to the largest
/// Gamma seen. A default-constructed scratch is always valid; buffers stay.
struct MLocScratch {
  LocalizationResult result;          ///< what the scratch overload returns
  geo::DiscIntersection region;       ///< recomputed in place per disc set
  std::vector<geo::Vec2> vertices;    ///< the region's Delta set
  std::vector<double> dist;           ///< n*n pairwise center distances
  std::vector<double> sx;             ///< SoA x of the active disc set
  std::vector<double> sy;             ///< SoA y of the active disc set
  std::vector<geo::Circle> retained;  ///< surviving discs during rejection
  std::vector<geo::Circle> candidate; ///< one-removed trial set
  std::vector<std::size_t> original;  ///< retained position -> dist row
};

/// One-line wrapper over the scratch overload with a per-thread scratch;
/// returns a copy of its result.
[[nodiscard]] LocalizationResult mloc_locate(std::span<const geo::Circle> discs,
                                             const MLocOptions& options = {});

/// The M-Loc implementation. The result lives in `scratch.result` and stays
/// valid until the next call with the same scratch; a caller that keeps it
/// longer copies it. `discs` must not alias the scratch's own buffers.
[[nodiscard]] const LocalizationResult& mloc_locate(std::span<const geo::Circle> discs,
                                                    const MLocOptions& options,
                                                    MLocScratch& scratch);

}  // namespace mm::marauder
