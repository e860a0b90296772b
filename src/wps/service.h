// Basilisk: the tile-sharded, mmap-backed WPS query backend (DESIGN.md §13).
//
// wps::Service is the production face of ApDatabase — the same asset Rye &
// Levin's "Surveilling the Masses" paper shows powering real Wi-Fi
// positioning systems: a BSSID -> location service over a city-scale AP
// snapshot, answering lookup / nearest / range traffic from many threads.
//
// The snapshot (wps/format.h) is mapped read-only; open() costs O(tiles):
// it parses the footer index (or forward-scans section headers when the
// tail is torn) and never touches record payloads. Per-tile work is lazy
// and concurrent-read-safe:
//   * first *lookup* touching a tile CRC-verifies its payload (call_once);
//   * first *geometric query* touching a tile additionally builds that
//     tile's geo::SpatialIndex over the mmapped records;
//   * a tile whose CRC disagrees is quarantined — counted, skipped by every
//     later query, never thrown (the Phoenix fallback contract).
//
// A Service owns one mapped snapshot at a time, and a query reads it with no
// pin and no lock. reload() swaps in a new snapshot between batches of
// queries, never during one (its precondition, DESIGN.md §14).
//
// Determinism contract: for an undamaged snapshot built from an ApDatabase,
// every query returns bit-identical results to the in-memory database —
//   lookup(b)        == db.find(b)                 (position/radius bits)
//   range(c, r)      == db.aps_in_range(c, r)      (ascending BSSID)
//   nearest_k(c, k)  == db.nearest_aps(c, k)       ((distance, BSSID) order)
// — because positions are the same doubles, membership predicates are the
// same Vec2::distance_to expressions, and cross-tile merges canonicalize
// order by (distance,) BSSID exactly as the Atlas-backed database does.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "geo/geodetic.h"
#include "geo/vec2.h"
#include "marauder/ap_database.h"
#include "net80211/mac_address.h"
#include "util/result.h"
#include "wps/format.h"

namespace mm::wps {

/// One AP as served to a client (SSIDs are not stored in snapshots).
struct WpsAp {
  net80211::MacAddress bssid;
  geo::Vec2 position;
  std::optional<double> radius_m;
};

/// Open-time + runtime health counters of the serving snapshot, plus the
/// Service's reload counters. Everything quarantine-shaped is monotone; the
/// first-touch quarantine fields are sampled from atomics.
struct ServiceStats {
  std::uint64_t records_total = 0;   ///< records in accepted tile sections
  std::uint64_t tiles_total = 0;     ///< accepted tile sections
  std::uint64_t sections_rejected = 0;  ///< index entries / scanned headers refused at open
  std::uint64_t tail_bytes_quarantined = 0;  ///< unparseable recovery-scan residue
  bool footer_recovered = false;     ///< trailer was damaged; index rebuilt by scan
  bool mac_index_present = false;
  bool mac_index_damaged = false;    ///< CRC failed on first lookup; using tile fallback
  std::uint64_t tiles_quarantined = 0;    ///< payload CRC failures on first touch
  std::uint64_t records_quarantined = 0;  ///< records inside quarantined tiles
  /// Heap bytes of the tile spatial indexes built so far: each index object
  /// and its id and cell-offset arrays (coordinates stay in the mapping).
  std::uint64_t index_bytes = 0;
  std::uint64_t epoch = 1;             ///< bumps on every successful reload
  std::uint64_t reloads = 0;           ///< successful hot-swaps
  std::uint64_t reloads_rejected = 0;  ///< candidates quarantined at reload
};

class Service {
 public:
  /// Maps the snapshot read-only. Fails only when the file cannot be mapped
  /// or its header is unusable; tail/section damage degrades instead (see
  /// ServiceStats). The Service is movable, not copyable; all queries on a
  /// const Service are safe from any number of threads concurrently.
  [[nodiscard]] static util::Result<Service> open(const std::filesystem::path& path);

  Service(Service&&) noexcept;
  Service& operator=(Service&&) noexcept;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service();

  /// BSSID -> record, O(log n) through the mmapped MAC index (falling back
  /// to per-tile binary search when the index section is absent or
  /// damaged). nullopt when unknown or quarantined.
  [[nodiscard]] std::optional<WpsAp> lookup(const net80211::MacAddress& bssid) const;

  /// APs with position.distance_to(center) <= radius_m, ascending BSSID.
  [[nodiscard]] std::vector<WpsAp> range(geo::Vec2 center, double radius_m) const;

  /// The k nearest APs ordered by (distance, BSSID), expanding tile rings
  /// around the query point exactly as far as the k-th best distance forces;
  /// once k candidates are held, a tile wholly beyond the k-th distance is
  /// skipped and a nearer one contributes only its points within it.
  [[nodiscard]] std::vector<WpsAp> nearest_k(geo::Vec2 center, std::size_t k) const;

  [[nodiscard]] std::size_t size() const noexcept;  ///< records in accepted tiles
  [[nodiscard]] geo::Geodetic origin() const noexcept;
  [[nodiscard]] double tile_size_m() const noexcept;
  [[nodiscard]] TileKey tile_of(geo::Vec2 p) const noexcept;
  [[nodiscard]] ServiceStats stats() const;

  /// Rebuilds an in-memory ApDatabase from every verifiable tile — the
  /// drop-in Tracker source (bit-identical localization to a Tracker built
  /// on the database the snapshot came from). Quarantined tiles are skipped
  /// and counted in stats().
  [[nodiscard]] marauder::ApDatabase materialize() const;

  // --- Aegis hot-swap between batches (DESIGN.md §14) ---

  /// Replaces the serving snapshot with `path` and returns the new epoch.
  /// The candidate is opened beside the incumbent and checked whole: it is
  /// admitted only when it is pristine — no recovered footer, no rejected
  /// section, no quarantined tail, every tile's payload CRC clean, and the
  /// MAC index usable with a clean CRC when the section is present. On
  /// success the old mapping is released, the epoch bumps, and the new
  /// snapshot serves every later query with all of its tiles already
  /// verified. The CRCs are checked in parallel chunks on
  /// util::ThreadPool::shared(); a refusal names the lowest-index failing
  /// tile. On failure the incumbent keeps serving untouched and
  /// reloads_rejected counts the refused candidate.
  ///
  /// Precondition: reload() is a mutation, so it follows the repo-wide
  /// convention that an object is not read while it is being written. No
  /// other call on the same Service — a query, stats(), prewarm(), or a
  /// RemoteServer batch running over it — may be in progress while reload()
  /// runs. `mmctl wps-serve` meets this by reloading on its serving thread
  /// between batches, after RemoteServer::drain has joined the last one.
  [[nodiscard]] util::Result<std::uint64_t> reload(const std::filesystem::path& path);

  /// Eagerly verifies + spatially indexes every tile of the current epoch
  /// (deterministic parallel chunks; parallelism 0 = hardware). Bounds the
  /// lazy first-touch tail: after prewarm, no query pays CRC or index-build
  /// cost. Returns the number of tiles left usable (total - quarantined).
  std::uint64_t prewarm(std::size_t parallelism = 0) const;

  /// Current serving epoch (1 at open, +1 per successful reload).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  struct Impl;
  explicit Service(std::unique_ptr<const Impl> impl);

  /// The whole of snapshot admission: map, parse the header, locate the
  /// sections (footer fast path, forward-scan fallback) and build the tile
  /// table. Shared by open() and reload().
  static util::Result<std::unique_ptr<const Impl>> open_impl(
      const std::filesystem::path& path);

  std::unique_ptr<const Impl> impl_;  ///< the serving snapshot
  std::uint64_t epoch_ = 1;
  std::uint64_t reloads_ = 0;
  std::uint64_t reloads_rejected_ = 0;
};

}  // namespace mm::wps
