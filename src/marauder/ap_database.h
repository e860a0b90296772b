// The attacker's AP knowledge base — the WiGLE substitute (Section II-A).
// Stores per-AP location (and, when available, maximum transmission
// distance), round-trips through a WiGLE-style CSV, and projects geodetic
// records into the local tangent plane the algorithms work in.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/circle.h"
#include "geo/geodetic.h"
#include "geo/spatial_index.h"
#include "net80211/mac_address.h"
#include "sim/scenario.h"
#include "util/result.h"

namespace mm::marauder {

/// Per-record quarantine counters for the CSV importers: malformed rows are
/// skipped and counted, never fatal (a week of wardriving should survive a
/// few garbled GPS lines).
struct CsvImportStats {
  std::size_t rows_total = 0;
  std::size_t rows_loaded = 0;
  std::size_t quarantined = 0;
};

struct KnownAp {
  net80211::MacAddress bssid;
  std::string ssid;
  geo::Vec2 position;                 ///< local ENU meters
  std::optional<double> radius_m;     ///< max transmission distance when known
};

class ApDatabase {
 public:
  ApDatabase();
  ApDatabase(const ApDatabase& other);
  ApDatabase& operator=(const ApDatabase& other);
  ApDatabase(ApDatabase&& other) noexcept;
  ApDatabase& operator=(ApDatabase&& other) noexcept;
  ~ApDatabase();

  void add(KnownAp ap);

  [[nodiscard]] std::size_t size() const noexcept { return aps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return aps_.empty(); }
  [[nodiscard]] const KnownAp* find(const net80211::MacAddress& bssid) const;
  /// Records in ascending-BSSID order. The backing store is a hash map (one
  /// mixed-u64 probe per disc lookup on the locate hot path); the sorted
  /// view is built lazily, cached, and invalidated by add() — set_radius /
  /// strip_radii mutate record fields in place and cannot reorder the
  /// pointer vector, so they keep the cache (set_radius / strip_radii patch
  /// the radius slab in place for the same reason).
  [[nodiscard]] const std::vector<const KnownAp*>& sorted_records() const;

  /// Flat SoA slab over sorted_records(): x[i]/y[i] are record i's position,
  /// radius[i] its stored radius or NaN when unknown (callers substitute
  /// their default). Built lazily alongside the sorted view and kept in
  /// lock-step with it: set_radius patches radius[i] in place, add()
  /// invalidates. Slipstream's locate arena and AP-Rad's constraint prep
  /// read positions straight out of these streams instead of re-gathering
  /// KnownAp structs per Gamma member.
  struct DiscSlabView {
    std::span<const double> x;
    std::span<const double> y;
    std::span<const double> radius;  ///< NaN = unknown
  };
  [[nodiscard]] DiscSlabView disc_slab() const;

  /// BSSID -> rank in sorted_records() (= its index into the slab),
  /// returned by reference after the one locked lazy build (same read-only
  /// concurrency contract as sorted_records). Hot loops probe this directly
  /// so a million Gamma members don't take a mutex each.
  using RankMap =
      std::unordered_map<net80211::MacAddress, std::uint32_t, net80211::MacHasher>;
  [[nodiscard]] const RankMap& rank_index() const;

  /// APs whose position lies within `radius_m` of `center`, in ascending
  /// BSSID order, served by a lazily built Atlas grid (invalidated whenever
  /// add() can move a position). Results match a brute-force scan over
  /// sorted_records() exactly, boundary included.
  [[nodiscard]] std::vector<const KnownAp*> aps_in_range(geo::Vec2 center,
                                                         double radius_m) const;
  /// The k nearest APs to `center`, ordered by (distance, BSSID).
  [[nodiscard]] std::vector<const KnownAp*> nearest_aps(geo::Vec2 center,
                                                        std::size_t k) const;

  /// Overwrites the stored radius of one AP (used by AP-Rad's LP output).
  void set_radius(const net80211::MacAddress& bssid, double radius_m);
  /// Drops all radius knowledge (simulating location-only WiGLE data).
  void strip_radii();

  /// Discs for the members of Gamma present in the database, in Gamma's
  /// order; APs with unknown radius use `default_radius_m`. Unknown BSSIDs
  /// are skipped.
  [[nodiscard]] std::vector<geo::Circle> discs_for(std::span<const net80211::MacAddress> gamma,
                                                   double default_radius_m) const;
  /// discs_for into `out`, replacing its contents and keeping its capacity.
  void discs_for(std::span<const net80211::MacAddress> gamma, double default_radius_m,
                 std::vector<geo::Circle>& out) const;

  /// Positions of Gamma's members known to the database, in Gamma's order.
  [[nodiscard]] std::vector<geo::Vec2> positions_for(
      std::span<const net80211::MacAddress> gamma) const;

  /// Builds the ground-truth database from a simulated deployment; radii are
  /// included only when `include_radii` (M-Loc scenario) and dropped
  /// otherwise (AP-Rad scenario).
  [[nodiscard]] static ApDatabase from_truth(std::span<const sim::ApTruth> truth,
                                             bool include_radii);

  /// CSV round-trip ("bssid,ssid,lat,lon[,radius_m]"); positions are stored
  /// geodetically and projected through `frame`. Fails (as a Result) only
  /// when the file is unreadable; malformed rows are quarantined into
  /// `stats` when given.
  [[nodiscard]] static util::Result<ApDatabase> from_csv(const std::filesystem::path& path,
                                                         const geo::EnuFrame& frame,
                                                         CsvImportStats* stats = nullptr);
  void to_csv(const std::filesystem::path& path, const geo::EnuFrame& frame) const;

  /// Imports a WiGLE export file (the "WigleWifi-1.4" CSV app format: a
  /// pre-header line, then netid,ssid,authmode,firstseen,channel,rssi,
  /// currentlatitude,currentlongitude,...,type). Non-WIFI rows and rows
  /// with unparsable BSSIDs or coordinates are quarantined; duplicate
  /// BSSIDs keep the last sighting. WiGLE carries no transmission
  /// distances — radii stay unset (the AP-Rad scenario, Section III-C.2).
  [[nodiscard]] static util::Result<ApDatabase> from_wigle_csv(
      const std::filesystem::path& path, const geo::EnuFrame& frame,
      CsvImportStats* stats = nullptr);

 private:
  /// Lazily built derived views. Kept behind a unique_ptr so the database
  /// stays movable/copyable (copies start with cold caches — the cached
  /// pointers refer into the source map). A mutex serializes lazy builds so
  /// const readers (locate_all worker threads) may race on first use; the
  /// returned views themselves are only read, never handed out mutable.
  /// Mutations (add / CSV import) follow the repo-wide convention that the
  /// database is not concurrently read while being written.
  struct Caches;
  Caches& caches() const;
  void invalidate_caches();
  /// Builds the sorted view + SoA slab + rank index; caller holds c.mutex.
  void build_sorted_locked(Caches& c) const;
  /// The caches with the slab and the grid over its positions built.
  const Caches& gridded_caches() const;

  std::unordered_map<net80211::MacAddress, KnownAp, net80211::MacHasher> aps_;
  mutable std::unique_ptr<Caches> caches_;
};

}  // namespace mm::marauder
