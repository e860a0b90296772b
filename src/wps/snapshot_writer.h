// Basilisk snapshot builder: freezes an AP set into the mmap-backed on-disk
// format (wps/format.h). The write is atomic — tmp + fsync + rename, the
// same contract as observation persistence and Phoenix checkpoints — so a
// crash mid-build never damages a previous snapshot at the same path.
#pragma once

#include <filesystem>
#include <vector>

#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "util/result.h"
#include "wps/format.h"

namespace mm::wps {

struct SnapshotBuildOptions {
  /// Tile edge length. Performance only, never query results: it sets
  /// the section granularity and how many records each tile's lazily built
  /// flat grid holds (the grid picks its own cell inside the tile).
  double tile_size_m = 512.0;
  /// fsync the temp file before rename. Off only in latency-bound tests.
  bool fsync = true;
  /// Emit the sorted BSSID -> record index section (O(log n) lookups). When
  /// off — or when the section is later damaged — lookups fall back to a
  /// per-tile binary search.
  bool mac_index = true;
};

struct SnapshotBuildStats {
  std::uint64_t records = 0;
  std::uint64_t tiles = 0;
  std::uint64_t file_bytes = 0;
};

/// Writes `records` (BSSIDs must be unique; every tool path goes through
/// ApDatabase, which guarantees it) as a snapshot at `path`. The record
/// vector is sorted in place by (tile, BSSID) — the on-disk order. Bytes are
/// a pure function of (records, origin, options): identical inputs produce
/// an identical file.
util::Result<SnapshotBuildStats> write_snapshot(std::vector<PackedRecord>& records,
                                                const geo::Geodetic& origin,
                                                const std::filesystem::path& path,
                                                const SnapshotBuildOptions& options = {});

/// Packs a database's records (ascending BSSID, positions/radii bit-exact;
/// SSIDs are dropped — a WPS serves locations, not names).
[[nodiscard]] std::vector<PackedRecord> pack_records(const marauder::ApDatabase& db);

/// Convenience: snapshot an ApDatabase.
util::Result<SnapshotBuildStats> write_snapshot(const marauder::ApDatabase& db,
                                                const geo::Geodetic& origin,
                                                const std::filesystem::path& path,
                                                const SnapshotBuildOptions& options = {});

}  // namespace mm::wps
