// The end-to-end attack pipeline (Fig 1): consume the sniffer's observation
// store and produce a location estimate for every monitored device, using a
// selectable localization algorithm. This is the class the digital
// Marauder's map display feeds from, and the one place the paper's chain
// (AP-Loc placement -> AP-Rad radii -> M-Loc) is composed and configured.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "capture/observation_store.h"
#include "capture/wardrive.h"
#include "marauder/ap_database.h"
#include "marauder/aploc.h"
#include "marauder/aprad.h"
#include "marauder/baselines.h"
#include "marauder/mloc.h"

namespace mm::marauder {

enum class Algorithm { kMLoc, kApRad, kApLoc, kCentroid, kNearestAp, kWeightedCentroid };

[[nodiscard]] const char* to_string(Algorithm algorithm) noexcept;

struct TrackerOptions {
  Algorithm algorithm = Algorithm::kMLoc;
  /// Radius used by M-Loc when the database lacks one for an AP.
  double default_radius_m = 100.0;
  /// Co-observation sessionization gap for AP-Rad's evidence: contacts of
  /// one device further apart than this are separate Gamma sessions (the
  /// paper's "within a short period of time").
  double session_gap_s = 5.0;
  /// Parallelism for locate_all(): 1 = serial, 0 = one per hardware core.
  /// Per-device tasks are merged in ascending-MAC order, so the result map
  /// is identical — bit for bit — at any setting.
  std::size_t threads = 1;
  ApRadOptions aprad;  ///< AP-Rad and AP-Loc
  ApLocOptions aploc;  ///< AP-Loc's placement (from_training)
  /// M-Loc, AP-Rad and AP-Loc. from_training sets exact_region_centroid
  /// on an AP-Loc tracker, whatever the caller passed.
  MLocOptions mloc;
};

/// Always zero: the Tracker keeps no cross-call state. The struct and
/// Tracker::gamma_cache_stats() remain only because the perfbench
/// offline_city workload still reads them; they go with its next change.
struct GammaCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Per-stage wall-clock breakdown of one locate_all() call (filled when the
/// caller passes a profile pointer; used by bench_offline_throughput). The
/// stages are those of M-Loc / AP-Rad; the baselines report only locate_s
/// and merge_s.
struct LocateAllProfile {
  double plan_s = 0.0;    ///< Gamma gather + duplicate grouping
  double locate_s = 0.0;  ///< parallel localization of unique disc sets
  double merge_s = 0.0;   ///< fan-out to devices + ordered map fold
  std::size_t devices = 0;
  /// Distinct disc sets in the call; the empty set (devices that hear no
  /// known AP in the window, which are not localized) counts once.
  std::size_t unique_gammas = 0;
  std::size_t outlier_devices = 0;  ///< results that rejected >= 1 disc
};

class Tracker {
 public:
  /// External-knowledge construction (M-Loc / AP-Rad / baselines); throws
  /// std::invalid_argument for kApLoc.
  Tracker(ApDatabase db, TrackerOptions options);

  /// Training-phase construction (kApLoc only, else std::invalid_argument):
  /// the database is built from the wardriving tuples; tuples also seed
  /// co-observation evidence. The final M-Loc takes the exact region
  /// centroid, the paper's "centroid of the intersected area": this sets
  /// options.mloc.exact_region_centroid, overriding a false.
  static Tracker from_training(const std::vector<capture::TrainingTuple>& tuples,
                               TrackerOptions options);

  /// Estimates radii (AP-Rad / AP-Loc) from every Gamma observed in the
  /// window. Must be called before locate() for those algorithms; a no-op
  /// for the others. Safe to call repeatedly as observations accumulate.
  void prepare(const capture::ObservationStore& store,
               const capture::ObservationWindow& window = {});

  [[nodiscard]] LocalizationResult locate(const capture::ObservationStore& store,
                                          const net80211::MacAddress& device,
                                          const capture::ObservationWindow& window = {}) const;

  /// Locates every monitored device and keeps the results that are ok.
  /// M-Loc, AP-Rad and AP-Loc run plan -> group -> locate-unique -> fan-out:
  /// devices with identical disc sets in this batch share one localization.
  /// The baselines run one locate() per device. Either way each result is
  /// bit-identical to locate() for that device, at any thread count (both
  /// paths take disc_rule()).
  /// `profile`, when non-null, receives the per-stage timing breakdown.
  [[nodiscard]] std::map<net80211::MacAddress, LocalizationResult> locate_all(
      const capture::ObservationStore& store,
      const capture::ObservationWindow& window = {},
      LocateAllProfile* profile = nullptr) const;

  [[nodiscard]] const ApDatabase& database() const noexcept { return db_; }
  [[nodiscard]] const TrackerOptions& options() const noexcept { return options_; }

  /// Zeros (see GammaCacheStats).
  [[nodiscard]] GammaCacheStats gamma_cache_stats() const { return {}; }

 private:
  /// M-Loc / AP-Rad / AP-Loc: the radius of a heard AP without one, the
  /// result's method, and whether to flag it as a fallback.
  struct DiscRule {
    double default_radius_m;
    const char* method;
    bool fallback;
  };
  [[nodiscard]] DiscRule disc_rule() const noexcept;

  /// The grouped batch path for M-Loc / AP-Rad / AP-Loc (see locate_all).
  [[nodiscard]] std::map<net80211::MacAddress, LocalizationResult> locate_all_grouped(
      const capture::ObservationStore& store, const capture::ObservationWindow& window,
      LocateAllProfile* profile) const;

  ApDatabase db_;
  TrackerOptions options_;
  std::vector<std::set<net80211::MacAddress>> training_evidence_;
  bool prepared_ = false;
};

}  // namespace mm::marauder
