// AP-Loc (Section III-C.3 / III-D): no external AP knowledge at all. From
// wardriving training tuples (location, heard-AP set) the attacker places
// each AP by disc-intersecting its training locations with a
// theoretical-upper-bound radius. This file is that placement step; the
// rest of the chain (AP-Rad's LP over the placed APs, then M-Loc) is the
// Tracker's (Tracker::from_training in tracker.h).
#pragma once

#include <map>
#include <vector>

#include "capture/wardrive.h"
#include "marauder/ap_database.h"

namespace mm::marauder {

enum class ApPlacement {
  /// The paper's method: intersect discs of the theoretical upper bound
  /// around the hearing locations, take the region's centroid.
  kBoundedIntersection,
  /// Refinement: center of the smallest circle enclosing the hearing
  /// locations — the limit of the intersection as the disc radius shrinks
  /// to the smallest feasible value (needs no radius bound at all).
  kSmallestEnclosingCircle,
};

struct ApLocOptions {
  ApPlacement placement = ApPlacement::kBoundedIntersection;
  /// Theoretical upper bound on AP transmission distance used as the disc
  /// radius around each training location (Section III-C.3).
  double training_disc_radius_m = 150.0;
};

/// Estimated AP positions, keyed by BSSID; APs never heard in any tuple do
/// not appear.
[[nodiscard]] std::map<net80211::MacAddress, geo::Vec2> aploc_estimate_positions(
    const std::vector<capture::TrainingTuple>& tuples, const ApLocOptions& options = {});

/// Builds a location-only database from the estimated positions.
[[nodiscard]] ApDatabase aploc_build_database(
    const std::vector<capture::TrainingTuple>& tuples, const ApLocOptions& options = {});

}  // namespace mm::marauder
