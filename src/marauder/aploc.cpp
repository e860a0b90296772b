#include "marauder/aploc.h"

#include "geo/enclosing_circle.h"
#include "marauder/mloc.h"

namespace mm::marauder {

std::map<net80211::MacAddress, geo::Vec2> aploc_estimate_positions(
    const std::vector<capture::TrainingTuple>& tuples, const ApLocOptions& options) {
  // Invert the tuples: AP -> training locations that heard it.
  std::map<net80211::MacAddress, std::vector<geo::Vec2>> heard_at;
  for (const capture::TrainingTuple& tuple : tuples) {
    for (const auto& mac : tuple.heard_aps) heard_at[mac].push_back(tuple.position);
  }

  std::map<net80211::MacAddress, geo::Vec2> positions;
  for (const auto& [mac, locations] : heard_at) {
    if (options.placement == ApPlacement::kSmallestEnclosingCircle) {
      positions[mac] = geo::smallest_enclosing_circle(locations).center;
      continue;
    }
    // Disc-intersection with the theoretical upper bound as radius; the AP
    // location estimate is the region's centroid — i.e., M-Loc applied with
    // the roles of AP and observer swapped.
    std::vector<geo::Circle> discs;
    discs.reserve(locations.size());
    for (const geo::Vec2& at : locations) {
      discs.push_back({at, options.training_disc_radius_m});
    }
    MLocOptions mloc_options;
    mloc_options.exact_region_centroid = true;  // paper: "centroid of the
                                                // intersected area"
    const LocalizationResult estimate = mloc_locate(discs, mloc_options);
    if (estimate.ok) positions[mac] = estimate.estimate;
  }
  return positions;
}

ApDatabase aploc_build_database(const std::vector<capture::TrainingTuple>& tuples,
                                const ApLocOptions& options) {
  ApDatabase db;
  for (const auto& [mac, position] : aploc_estimate_positions(tuples, options)) {
    KnownAp ap;
    ap.bssid = mac;
    ap.ssid = "";  // training cannot recover names reliably; not needed
    ap.position = position;
    db.add(std::move(ap));
  }
  return db;
}

}  // namespace mm::marauder
