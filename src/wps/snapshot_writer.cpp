#include "wps/snapshot_writer.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "durability/checkpoint.h"
#include "durability/crc32c.h"
#include "util/bytes.h"

namespace mm::wps {

namespace {

std::uint32_t crc_of(const std::vector<std::uint8_t>& buf, std::size_t begin,
                     std::size_t end) {
  return durability::crc32c({buf.data() + begin, end - begin});
}

/// Appends one section header; the two CRC fields are patched afterwards.
struct SectionAt {
  std::size_t header_at = 0;   ///< offset of the section header in the buffer
  std::size_t payload_at = 0;  ///< offset of the payload
};

SectionAt begin_section(std::vector<std::uint8_t>& out, SectionType type,
                        TileKey tile, std::uint64_t payload_bytes,
                        std::uint64_t first_record) {
  SectionAt at;
  at.header_at = out.size();
  out.insert(out.end(), kSectionMagic.begin(), kSectionMagic.end());
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  util::append_u64(out, static_cast<std::uint64_t>(tile.x));
  util::append_u64(out, static_cast<std::uint64_t>(tile.y));
  util::append_u64(out, payload_bytes);
  util::append_u64(out, first_record);
  util::append_u32(out, 0);  // payload CRC, patched once the payload is in place
  util::append_u32(out, 0);  // header CRC, patched last
  at.payload_at = out.size();
  return at;
}

void end_section(std::vector<std::uint8_t>& out, const SectionAt& at) {
  const std::uint32_t payload_crc = crc_of(out, at.payload_at, out.size());
  util::store_u32(out.data() + at.header_at + 40, payload_crc);
  const std::uint32_t header_crc = crc_of(out, at.header_at, at.header_at + 44);
  util::store_u32(out.data() + at.header_at + 44, header_crc);
}

void append_record(std::vector<std::uint8_t>& out, const PackedRecord& r) {
  util::append_u64(out, r.bssid);
  util::append_f64(out, r.x);
  util::append_f64(out, r.y);
  util::append_f64(out, r.radius_m);
}

}  // namespace

util::Result<SnapshotBuildStats> write_snapshot(std::vector<PackedRecord>& records,
                                                const geo::Geodetic& origin,
                                                const std::filesystem::path& path,
                                                const SnapshotBuildOptions& options) {
  using R = util::Result<SnapshotBuildStats>;
  if (!(options.tile_size_m > 0.0) || !std::isfinite(options.tile_size_m)) {
    return R::failure("wps snapshot: tile size must be positive and finite");
  }
  const double tile = options.tile_size_m;

  // On-disk order: (tile, BSSID). Ascending BSSID within a tile is what makes
  // per-tile binary search work and makes per-tile SpatialIndex ids (local
  // record offsets) coincide with BSSID rank. Each record's tile is computed
  // once: the (tile, BSSID, input index) keys are sorted and the records
  // gathered in their order. BSSIDs are unique, so (tile, BSSID) is a total
  // order and the result does not depend on the input's order.
  struct Keyed {
    TileKey tile;
    std::uint64_t bssid;
    std::size_t index;
  };
  // The tile runs, taken from the keys: a run ends where the next begins.
  struct TileRun {
    TileKey key;
    std::size_t end;
  };
  std::vector<TileRun> runs;
  {
    std::vector<Keyed> keyed(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      keyed[r] = {{tile_coord(records[r].x, tile), tile_coord(records[r].y, tile)},
                  records[r].bssid, r};
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
      if (a.tile != b.tile) return a.tile < b.tile;
      return a.bssid < b.bssid;
    });
    std::vector<PackedRecord> sorted(records.size());
    for (std::size_t r = 0; r < keyed.size(); ++r) {
      sorted[r] = records[keyed[r].index];
      if (r + 1 == keyed.size() || keyed[r + 1].tile != keyed[r].tile) {
        runs.push_back({keyed[r].tile, r + 1});
      }
    }
    records.swap(sorted);
  }

  // The file's exact size, so the buffer never grows by copying.
  const bool mac_index = options.mac_index && !records.empty();
  const std::size_t sections = runs.size() + (mac_index ? 1 : 0);
  std::vector<std::uint8_t> out;
  out.reserve(kFileHeaderBytes + sections * (kSectionHeaderBytes + kFooterEntryBytes) +
              records.size() * (kRecordBytes + (mac_index ? kMacIndexEntryBytes : 0)) +
              kFooterMagic.size() + sizeof(std::uint32_t) + kTrailerBytes);

  // --- file header ---
  out.insert(out.end(), kFileMagic.begin(), kFileMagic.end());
  util::append_u32(out, kFormatVersion);
  util::append_u32(out, 0);  // header CRC, patched below
  util::append_f64(out, origin.lat_deg);
  util::append_f64(out, origin.lon_deg);
  util::append_f64(out, origin.alt_m);
  util::append_f64(out, tile);
  util::append_u64(out, records.size());
  util::append_u64(out, 0);  // reserved
  util::store_u32(out.data() + 12, crc_of(out, 16, kFileHeaderBytes));

  // --- tile sections ---
  struct FooterRow {
    std::uint64_t offset;
    std::size_t header_at;
  };
  std::vector<FooterRow> footer_rows;
  std::size_t begin = 0;
  for (const TileRun& run : runs) {
    const std::uint64_t payload = static_cast<std::uint64_t>(run.end - begin) * kRecordBytes;
    const SectionAt at = begin_section(out, SectionType::kTileRecords, run.key, payload,
                                       static_cast<std::uint64_t>(begin));
    for (std::size_t r = begin; r < run.end; ++r) append_record(out, records[r]);
    end_section(out, at);
    footer_rows.push_back({static_cast<std::uint64_t>(at.header_at), at.header_at});
    begin = run.end;
  }

  // --- MAC index section: (bssid, global record index), BSSID-ascending ---
  if (mac_index) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_bssid(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) by_bssid[r] = {records[r].bssid, r};
    std::sort(by_bssid.begin(), by_bssid.end());
    const std::uint64_t payload =
        static_cast<std::uint64_t>(records.size()) * kMacIndexEntryBytes;
    const SectionAt at = begin_section(out, SectionType::kMacIndex, {}, payload, 0);
    for (const auto& [bssid, r] : by_bssid) {
      util::append_u64(out, bssid);
      util::append_u64(out, r);
    }
    end_section(out, at);
    footer_rows.push_back({static_cast<std::uint64_t>(at.header_at), at.header_at});
  }

  // --- footer: "WIDX" + count + (offset, section header) per section ---
  const std::size_t footer_at = out.size();
  out.insert(out.end(), kFooterMagic.begin(), kFooterMagic.end());
  util::append_u32(out, static_cast<std::uint32_t>(footer_rows.size()));
  for (const FooterRow& row : footer_rows) {
    util::append_u64(out, row.offset);
    // The footer entry is a verbatim copy of the section header, so one
    // header parser serves both the fast path and the recovery scan.
    out.insert(out.end(), out.begin() + static_cast<std::ptrdiff_t>(row.header_at),
               out.begin() + static_cast<std::ptrdiff_t>(row.header_at) +
                   static_cast<std::ptrdiff_t>(kSectionHeaderBytes));
  }

  // --- trailer ---
  const std::uint32_t footer_crc = crc_of(out, footer_at, out.size());
  util::append_u64(out, static_cast<std::uint64_t>(footer_at));
  util::append_u32(out, footer_crc);
  util::append_u32(out, 0);
  out.insert(out.end(), kTrailerMagic.begin(), kTrailerMagic.end());

  auto written =
      durability::write_file_atomic(path, std::as_bytes(std::span(out)), options.fsync);
  if (!written.ok()) return R::failure("wps snapshot: " + written.error());

  SnapshotBuildStats stats;
  stats.records = records.size();
  stats.tiles = runs.size();
  stats.file_bytes = out.size();
  return stats;
}

std::vector<PackedRecord> pack_records(const marauder::ApDatabase& db) {
  std::vector<PackedRecord> records;
  records.reserve(db.size());
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    PackedRecord r;
    r.bssid = ap->bssid.to_u64();
    r.x = ap->position.x;
    r.y = ap->position.y;
    r.radius_m = ap->radius_m ? *ap->radius_m : no_radius();
    records.push_back(r);
  }
  return records;
}

util::Result<SnapshotBuildStats> write_snapshot(const marauder::ApDatabase& db,
                                                const geo::Geodetic& origin,
                                                const std::filesystem::path& path,
                                                const SnapshotBuildOptions& options) {
  std::vector<PackedRecord> records = pack_records(db);
  return write_snapshot(records, origin, path, options);
}

}  // namespace mm::wps
