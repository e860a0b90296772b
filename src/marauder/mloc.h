// M-Loc (Section III-D): locate a mobile from the discs of its communicable
// APs when both locations and maximum transmission distances are known.
//
// The paper's pseudo-code collects every pairwise circle-circle intersection
// point that lies within all discs (the set Delta) and returns their average.
// Degenerate inputs the pseudo-code leaves open are handled explicitly:
//   * |Gamma| = 1          -> the AP's position (nearest-AP reduction);
//   * nested discs, Delta empty, non-empty region -> the inner disc's center;
//   * inconsistent discs (empty intersection; possible under AP-Rad's
//     estimated radii or corrupted capture evidence) -> optionally an
//     outlier-rejection pass (drop the fewest discs that make the
//     intersection non-empty, greedily, up to `max_outliers`), else the
//     centroid of the AP positions, flagged as fallback.
// `exact_region_centroid` switches the estimate from the vertex average to
// the true centroid of the intersection region (ablation in bench_ablation).
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

/// Reusable workspace for the M-Loc hot path. locate_all keeps one per
/// worker thread so the outlier-rejection pass — the pairwise-distance
/// matrix, its SoA center mirror, and the one-removed candidate sets — runs
/// allocation-free across every device a worker processes. A
/// default-constructed scratch is always valid; buffers grow to the largest
/// Gamma seen and stay.
struct MLocScratch {
  std::vector<double> dist;           ///< n*n pairwise center distances
  std::vector<double> sx;             ///< SoA x of the active disc set
  std::vector<double> sy;             ///< SoA y of the active disc set
  std::vector<geo::Circle> retained;  ///< surviving discs during rejection
  std::vector<geo::Circle> candidate; ///< one-removed trial set
  std::vector<std::size_t> original;  ///< retained position -> dist row
};

[[nodiscard]] LocalizationResult mloc_locate(std::span<const geo::Circle> discs,
                                             const MLocOptions& options = {});

/// Scratch-reusing variant: bit-identical to the allocation-per-call one (the
/// buffers only change where intermediates live, never what they hold).
[[nodiscard]] LocalizationResult mloc_locate(std::span<const geo::Circle> discs,
                                             const MLocOptions& options,
                                             MLocScratch& scratch);

}  // namespace mm::marauder
