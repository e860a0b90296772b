#include <iostream>

#include "capture/persistence.h"
#include "capture/replay.h"
#include "commands.h"
#include "fault/fault_plan.h"
#include "maps/html_map.h"
#include "marauder/identity.h"
#include "marauder/tracker.h"
#include "marauder/trajectory.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace mm::tools {

int cmd_locate(const util::Flags& flags) {
  const std::string apdb_path = flags.get("apdb", "");
  const std::string obs_path = flags.get("observations", "");
  const std::string pcap_path = flags.get("pcap", "");
  const std::string algorithm_name = flags.get("algorithm", "mloc");
  const std::string map_path = flags.get("map", "");
  if (apdb_path.empty() || (obs_path.empty() && pcap_path.empty())) {
    std::cerr << "mmctl locate: --apdb and one of --observations/--pcap are required\n";
    return 2;
  }

  marauder::Algorithm algorithm;
  if (algorithm_name == "mloc") {
    algorithm = marauder::Algorithm::kMLoc;
  } else if (algorithm_name == "aprad") {
    algorithm = marauder::Algorithm::kApRad;
  } else if (algorithm_name == "centroid") {
    algorithm = marauder::Algorithm::kCentroid;
  } else if (algorithm_name == "nearest") {
    algorithm = marauder::Algorithm::kNearestAp;
  } else {
    std::cerr << "mmctl locate: unknown --algorithm '" << algorithm_name
              << "' (mloc|aprad|centroid|nearest)\n";
    return 2;
  }

  const geo::EnuFrame frame(sim::uml_north_campus());
  marauder::CsvImportStats apdb_stats;
  auto db_result = marauder::ApDatabase::from_csv(apdb_path, frame, &apdb_stats);
  if (!db_result.ok()) {
    std::cerr << "mmctl locate: --apdb: " << db_result.error() << "\n";
    return 1;
  }
  marauder::ApDatabase db = std::move(db_result.value());
  if (apdb_stats.quarantined > 0) {
    std::cerr << "apdb: quarantined " << apdb_stats.quarantined << "/"
              << apdb_stats.rows_total << " malformed rows\n";
  }

  capture::ObservationStore store;
  std::size_t capture_quarantined = 0;
  if (!obs_path.empty()) {
    auto loaded = capture::load_observations(obs_path);
    if (!loaded.ok()) {
      std::cerr << "mmctl locate: --observations: " << loaded.error() << "\n";
      return 1;
    }
    store = std::move(loaded.value().store);
    const capture::LoadStats& ls = loaded.value().stats;
    capture_quarantined = ls.quarantined;
    if (ls.quarantined > 0) {
      std::cerr << "observations: quarantined " << ls.quarantined << "/" << ls.rows_total
                << " rows";
      if (!ls.sample_errors.empty()) {
        std::cerr << " (e.g. " << ls.sample_errors.front() << ")";
      }
      std::cerr << "\n";
    }
  } else {
    capture::ReplayOptions replay_options;
    if (flags.has("fault-plan")) {
      auto parsed = fault::FaultPlan::parse(flags.get("fault-plan", ""));
      if (!parsed.ok()) {
        std::cerr << "mmctl locate: --fault-plan: " << parsed.error() << "\n";
        return 2;
      }
      replay_options.fault_plan = parsed.value();
    }
    auto replayed = capture::replay_pcap(pcap_path, store, replay_options);
    if (!replayed.ok()) {
      std::cerr << "mmctl locate: --pcap: " << replayed.error() << "\n";
      return 1;
    }
    const capture::ReplayStats& stats = replayed.value();
    capture_quarantined = stats.quarantined();
    std::cerr << "replayed " << stats.records << " records (" << stats.malformed
              << " malformed, " << stats.framing_quarantined << " framing-quarantined"
              << (stats.truncated_tail ? ", truncated tail" : "") << ")\n";
  }

  marauder::TrackerOptions options;
  options.algorithm = algorithm;
  // Damaged evidence (quarantined rows upstream) makes inconsistent disc
  // sets likely; let M-Loc shed outliers instead of falling back.
  options.mloc.reject_outliers = flags.has("reject-outliers");
  marauder::Tracker tracker(std::move(db), options);
  tracker.prepare(store);

  // SSID-fingerprint linking (the resolver's default signals).
  const marauder::IdentityMap identities = marauder::resolve_identities(store);
  util::Table table({"identity (first MAC)", "aliases", "track pts", "last x (m)",
                     "last y (m)", "lat", "lon", "|Gamma|", "nearest AP", "degraded"});
  maps::MarauderMap map("mmctl locate — " + algorithm_name, frame);
  for (const marauder::KnownAp* ap : tracker.database().sorted_records()) {
    map.add_ap(ap->position, ap->ssid, ap->radius_m);
  }

  std::size_t located = 0;
  std::size_t degraded = 0;
  for (const marauder::ResolvedIdentity& identity : identities.identities) {
    // Assemble the identity's full movement track (per scan burst, across
    // MAC rotations); report the latest position — what the Marauder's Map
    // display shows for a moving tag.
    const auto track = marauder::build_trajectory(tracker, store, identity.macs);
    if (track.empty()) continue;
    ++located;
    const marauder::TrackPoint& last = track.back();
    if (last.degraded) ++degraded;
    const geo::Geodetic g = frame.to_geodetic(last.position);
    // The landmark a human reads off the map: the known AP closest to the
    // estimate (Atlas grid query — the database may hold a whole city).
    const auto nearest = tracker.database().nearest_aps(last.position, 1);
    std::string landmark;
    if (!nearest.empty()) {
      landmark = nearest.front()->ssid.empty() ? nearest.front()->bssid.to_string()
                                               : nearest.front()->ssid;
      landmark += " (" +
                  util::Table::fmt(last.position.distance_to(nearest.front()->position), 0) +
                  " m)";
    }
    table.add_row({identity.macs.front().to_string(),
                   std::to_string(identity.macs.size()), std::to_string(track.size()),
                   util::Table::fmt(last.position.x, 1),
                   util::Table::fmt(last.position.y, 1), util::Table::fmt(g.lat_deg, 6),
                   util::Table::fmt(g.lon_deg, 6), std::to_string(last.num_aps),
                   landmark, last.degraded ? "yes" : ""});
    map.add_estimate(last.position, identity.macs.front().to_string());
    if (track.size() > 1) {
      std::vector<geo::Vec2> path;
      path.reserve(track.size());
      for (const auto& point : track) path.push_back(point.position);
      map.add_path(path, identity.macs.front().to_string() + " track");
    }
  }
  table.print(std::cout);
  std::cout << "\nlocated " << located << "/" << identities.size()
            << " identities (" << store.device_count() << " MACs observed";
  if (capture_quarantined > 0) {
    std::cout << ", " << capture_quarantined << " capture rows quarantined";
  }
  if (degraded > 0) std::cout << ", " << degraded << " degraded estimates";
  std::cout << ")\n";

  if (!map_path.empty()) {
    map.write_html(map_path);
    std::cout << "wrote " << map_path << "\n";
  }
  return 0;
}

}  // namespace mm::tools
