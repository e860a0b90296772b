#include "wps/service.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

#include "durability/crc32c.h"
#include "geo/spatial_index.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace mm::wps {

namespace {

std::uint32_t crc_over(const std::uint8_t* p, std::size_t n) {
  return durability::crc32c({p, n});
}

/// A parsed section header (footer entries embed the same 48 bytes).
struct SectionInfo {
  SectionType type = SectionType::kTileRecords;
  TileKey tile;
  std::uint64_t payload_bytes = 0;
  std::uint64_t first_record = 0;
  std::uint32_t payload_crc = 0;
};

/// Validates the 48-byte header at `p` (magic + header CRC); false on damage.
bool parse_section_header(const std::uint8_t* p, SectionInfo& out) {
  if (std::memcmp(p, kSectionMagic.data(), kSectionMagic.size()) != 0) return false;
  if (crc_over(p, 44) != util::load_u32(p + 44)) return false;
  const std::uint8_t type = p[4];
  if (type != static_cast<std::uint8_t>(SectionType::kTileRecords) &&
      type != static_cast<std::uint8_t>(SectionType::kMacIndex)) {
    return false;
  }
  out.type = static_cast<SectionType>(type);
  out.tile.x = static_cast<std::int64_t>(util::load_u64(p + 8));
  out.tile.y = static_cast<std::int64_t>(util::load_u64(p + 16));
  out.payload_bytes = util::load_u64(p + 24);
  out.first_record = util::load_u64(p + 32);
  out.payload_crc = util::load_u32(p + 40);
  return true;
}

struct TileKeyHasher {
  std::size_t operator()(const TileKey& k) const noexcept {
    return static_cast<std::size_t>(util::hash_combine(
        static_cast<std::uint64_t>(k.x), static_cast<std::uint64_t>(k.y)));
  }
};

}  // namespace

struct Service::Impl {
  // --- mapping ---
  const std::uint8_t* data = nullptr;
  std::size_t file_size = 0;

  // --- header fields ---
  geo::Geodetic origin;
  double tile_size = 1.0;
  std::uint64_t declared_records = 0;

  // --- accepted sections ---
  struct TileMeta {
    TileKey key;
    std::uint64_t payload_off = 0;
    std::uint64_t count = 0;
    std::uint64_t first_record = 0;  ///< global record index of the tile's first record
    std::uint32_t payload_crc = 0;
  };
  std::vector<TileMeta> tiles;  ///< sorted by key
  std::unordered_map<TileKey, std::size_t, TileKeyHasher> tile_lookup;
  TileKey tile_lo, tile_hi;     ///< bounding box of accepted tiles
  std::uint64_t records_total = 0;

  bool mac_index_present = false;
  bool tile_table_consistent = false;  ///< first_record ranges are sane (MAC index usable)
  std::uint64_t mac_index_off = 0;
  std::uint64_t mac_index_count = 0;
  std::uint32_t mac_index_crc = 0;

  // --- open-time counters ---
  std::uint64_t sections_rejected = 0;
  std::uint64_t tail_bytes_quarantined = 0;
  bool footer_recovered = false;

  // --- lazy per-tile state ---
  struct TileState {
    std::once_flag verify_once;  ///< CRC the payload (lookup path)
    std::once_flag index_once;   ///< build the spatial index (geometry path)
    std::atomic<bool> damaged{false};
    std::unique_ptr<geo::SpatialIndex> index;
  };
  std::unique_ptr<TileState[]> tile_states;
  mutable std::once_flag mac_index_once;
  mutable std::atomic<bool> mac_index_damaged{false};
  mutable std::atomic<std::uint64_t> tiles_quarantined{0};
  mutable std::atomic<std::uint64_t> records_quarantined{0};
  /// Heap held by the built tile indexes: each heap-allocated object plus
  /// its arrays.
  mutable std::atomic<std::uint64_t> index_bytes{0};

  ~Impl() {
    if (data != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data), file_size);
    }
  }

  [[nodiscard]] PackedRecord record_at(const TileMeta& tile, std::uint64_t i) const {
    PackedRecord r;
    std::memcpy(&r, data + tile.payload_off + i * kRecordBytes, kRecordBytes);
    return r;
  }

  [[nodiscard]] static WpsAp to_ap(const PackedRecord& r) {
    WpsAp ap;
    ap.bssid = net80211::MacAddress::from_u64(r.bssid);
    ap.position = {r.x, r.y};
    if (r.has_radius()) ap.radius_m = r.radius_m;
    return ap;
  }

  /// CRC-verifies the tile payload on first touch; true when usable.
  bool ensure_verified(std::size_t t) const {
    TileState& st = tile_states[t];
    std::call_once(st.verify_once, [&] {
      const TileMeta& m = tiles[t];
      if (crc_over(data + m.payload_off, m.count * kRecordBytes) != m.payload_crc) {
        st.damaged.store(true, std::memory_order_release);
        tiles_quarantined.fetch_add(1, std::memory_order_relaxed);
        records_quarantined.fetch_add(m.count, std::memory_order_relaxed);
      }
    });
    return !st.damaged.load(std::memory_order_acquire);
  }

  /// The tile's record positions, read in place from the mapping: x and y
  /// sit at offsets 8 and 16 of each 32-byte record.
  [[nodiscard]] geo::PointView points_of(const TileMeta& tile) const {
    const std::uint8_t* records = data + tile.payload_off;
    return {records + offsetof(PackedRecord, x), records + offsetof(PackedRecord, y),
            kRecordBytes, tile.count};
  }

  /// Verifies + builds the tile's spatial index on first geometric touch;
  /// nullptr when the tile is quarantined.
  const geo::SpatialIndex* ensure_index(std::size_t t) const {
    if (!ensure_verified(t)) return nullptr;
    TileState& st = tile_states[t];
    std::call_once(st.index_once, [&] {
      // Local ids are record offsets within the tile; records are
      // BSSID-ascending inside a tile, so ascending local id == ascending
      // BSSID — the property the query merges lean on.
      st.index = std::make_unique<geo::SpatialIndex>(points_of(tiles[t]));
      index_bytes.fetch_add(sizeof(geo::SpatialIndex) + st.index->heap_bytes(),
                            std::memory_order_relaxed);
    });
    return st.index.get();
  }

  /// True when the MAC index section is present and CRC-clean (verified on
  /// the first lookup that needs it).
  bool ensure_mac_index() const {
    if (!mac_index_present || !tile_table_consistent) return false;
    std::call_once(mac_index_once, [&] {
      if (crc_over(data + mac_index_off, mac_index_count * kMacIndexEntryBytes) !=
          mac_index_crc) {
        mac_index_damaged.store(true, std::memory_order_release);
      }
    });
    return !mac_index_damaged.load(std::memory_order_acquire);
  }

  /// Global record index -> owning tile, by binary search over first_record
  /// (the tile table is key-sorted, which is the writer's emission order, so
  /// first_record ascends; open() disables the MAC index path otherwise).
  [[nodiscard]] std::optional<WpsAp> record_by_global_index(std::uint64_t g) const {
    std::size_t lo = 0;
    std::size_t hi = tiles.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (tiles[mid].first_record <= g) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0) return std::nullopt;
    const std::size_t t = lo - 1;
    const TileMeta& m = tiles[t];
    if (g >= m.first_record + m.count) return std::nullopt;
    if (!ensure_verified(t)) return std::nullopt;
    return to_ap(record_at(m, g - m.first_record));
  }
};

Service::Service(std::unique_ptr<const Impl> impl) : impl_(std::move(impl)) {}
Service::Service(Service&&) noexcept = default;
Service& Service::operator=(Service&&) noexcept = default;
Service::~Service() = default;

util::Result<std::unique_ptr<const Service::Impl>> Service::open_impl(
    const std::filesystem::path& path) {
  using R = util::Result<std::unique_ptr<const Impl>>;

  auto impl = std::make_unique<Impl>();

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return R::failure("wps: cannot open " + path.string());
  struct ::stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return R::failure("wps: cannot stat " + path.string());
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < kFileHeaderBytes) {
    ::close(fd);
    return R::failure("wps: " + path.string() + " is too small to be a snapshot");
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) return R::failure("wps: mmap failed on " + path.string());
  impl->data = static_cast<const std::uint8_t*>(mapped);
  impl->file_size = size;
  const std::uint8_t* base = impl->data;

  // --- file header ---
  if (std::memcmp(base, kFileMagic.data(), kFileMagic.size()) != 0) {
    return R::failure("wps: " + path.string() + " is not a snapshot (bad magic)");
  }
  if (util::load_u32(base + 8) != kFormatVersion) {
    return R::failure("wps: unsupported snapshot version in " + path.string());
  }
  if (crc_over(base + 16, kFileHeaderBytes - 16) != util::load_u32(base + 12)) {
    return R::failure("wps: damaged snapshot header in " + path.string());
  }
  impl->origin.lat_deg = util::load_f64(base + 16);
  impl->origin.lon_deg = util::load_f64(base + 24);
  impl->origin.alt_m = util::load_f64(base + 32);
  impl->tile_size = util::load_f64(base + 40);
  impl->declared_records = util::load_u64(base + 48);
  if (!(impl->tile_size > 0.0) || !std::isfinite(impl->tile_size)) {
    return R::failure("wps: invalid tile size in " + path.string());
  }

  // --- locate sections: footer index fast path, forward scan fallback ---
  struct Located {
    std::uint64_t offset;
    SectionInfo info;
  };
  std::vector<Located> sections;

  bool footer_ok = false;
  if (size >= kFileHeaderBytes + kTrailerBytes) {
    const std::uint8_t* trailer = base + size - kTrailerBytes;
    if (std::memcmp(trailer + 16, kTrailerMagic.data(), kTrailerMagic.size()) == 0) {
      const std::uint64_t footer_off = util::load_u64(trailer);
      const std::uint32_t footer_crc = util::load_u32(trailer + 8);
      if (footer_off >= kFileHeaderBytes && footer_off + 8 <= size - kTrailerBytes &&
          crc_over(base + footer_off, size - kTrailerBytes - footer_off) == footer_crc &&
          std::memcmp(base + footer_off, kFooterMagic.data(), kFooterMagic.size()) == 0) {
        const std::uint32_t entries = util::load_u32(base + footer_off + 4);
        const std::uint64_t table_bytes =
            static_cast<std::uint64_t>(entries) * kFooterEntryBytes;
        if (footer_off + 8 + table_bytes == size - kTrailerBytes) {
          footer_ok = true;
          // One entry per section, and all but the MAC index are tiles.
          sections.reserve(entries);
          impl->tiles.reserve(entries);
          impl->tile_lookup.reserve(entries);
          for (std::uint32_t e = 0; e < entries; ++e) {
            const std::uint8_t* row = base + footer_off + 8 +
                                      static_cast<std::uint64_t>(e) * kFooterEntryBytes;
            const std::uint64_t off = util::load_u64(row);
            SectionInfo info;
            // A stale footer can point anywhere: entries whose header fails
            // its CRC, whose extent leaves the file, or whose on-disk header
            // disagrees with the footer copy are quarantined individually.
            if (!parse_section_header(row + 8, info) ||
                off < kFileHeaderBytes || off + kSectionHeaderBytes > footer_off ||
                off + kSectionHeaderBytes + info.payload_bytes > footer_off ||
                std::memcmp(base + off, row + 8, kSectionHeaderBytes) != 0) {
              ++impl->sections_rejected;
              continue;
            }
            sections.push_back({off, info});
          }
        }
      }
    }
  }
  if (!footer_ok) {
    // Torn tail: the trailer (and possibly the footer and the last sections)
    // are gone. Sections are self-framed, so walk them forward; the first
    // offset that is neither a valid section header nor the footer marker
    // ends the walk and the residue is quarantined by byte count.
    impl->footer_recovered = true;
    std::uint64_t off = kFileHeaderBytes;
    while (off + kSectionHeaderBytes <= size) {
      if (std::memcmp(base + off, kFooterMagic.data(), kFooterMagic.size()) == 0) {
        off = size;  // reached an (unverifiable) footer: the walk is complete
        break;
      }
      SectionInfo info;
      if (!parse_section_header(base + off, info) ||
          off + kSectionHeaderBytes + info.payload_bytes > size) {
        break;
      }
      sections.push_back({off, info});
      off += kSectionHeaderBytes + info.payload_bytes;
    }
    impl->tail_bytes_quarantined = size - off;
  }

  // --- build the tile table ---
  for (const Located& s : sections) {
    if (s.info.type == SectionType::kTileRecords) {
      if (s.info.payload_bytes % kRecordBytes != 0) {
        ++impl->sections_rejected;
        continue;
      }
      Impl::TileMeta meta;
      meta.key = s.info.tile;
      meta.payload_off = s.offset + kSectionHeaderBytes;
      meta.count = s.info.payload_bytes / kRecordBytes;
      meta.first_record = s.info.first_record;
      meta.payload_crc = s.info.payload_crc;
      impl->tiles.push_back(meta);
    } else {
      if (impl->mac_index_present || s.info.payload_bytes % kMacIndexEntryBytes != 0) {
        ++impl->sections_rejected;
        continue;
      }
      impl->mac_index_present = true;
      impl->mac_index_off = s.offset + kSectionHeaderBytes;
      impl->mac_index_count = s.info.payload_bytes / kMacIndexEntryBytes;
      impl->mac_index_crc = s.info.payload_crc;
    }
  }
  std::sort(impl->tiles.begin(), impl->tiles.end(),
            [](const Impl::TileMeta& a, const Impl::TileMeta& b) { return a.key < b.key; });
  for (std::size_t t = 0; t < impl->tiles.size(); ++t) {
    const Impl::TileMeta& m = impl->tiles[t];
    if (!impl->tile_lookup.emplace(m.key, t).second) {
      // Duplicate tile (only reachable through a stale footer): drop the
      // later copy so every query sees one authoritative section per tile.
      impl->tiles.erase(impl->tiles.begin() + static_cast<std::ptrdiff_t>(t));
      --t;
      ++impl->sections_rejected;
      continue;
    }
    impl->records_total += m.count;
    if (t == 0) {
      impl->tile_lo = impl->tile_hi = m.key;
    } else {
      impl->tile_lo.x = std::min(impl->tile_lo.x, m.key.x);
      impl->tile_lo.y = std::min(impl->tile_lo.y, m.key.y);
      impl->tile_hi.x = std::max(impl->tile_hi.x, m.key.x);
      impl->tile_hi.y = std::max(impl->tile_hi.y, m.key.y);
    }
  }
  // The MAC index maps BSSIDs to writer-order global record indices; that
  // mapping is only trustworthy when the accepted tiles form the writer's
  // contiguous record ranges (a stale footer can break this — lookups then
  // fall back to per-tile binary search, which needs no global numbering).
  impl->tile_table_consistent = true;
  std::uint64_t expect_first = 0;
  for (const Impl::TileMeta& m : impl->tiles) {
    if (m.first_record != expect_first) {
      impl->tile_table_consistent = false;
      break;
    }
    expect_first += m.count;
  }
  impl->tile_states = std::make_unique<Impl::TileState[]>(impl->tiles.size());

  return R(std::unique_ptr<const Impl>(std::move(impl)));
}

util::Result<Service> Service::open(const std::filesystem::path& path) {
  using R = util::Result<Service>;
  auto impl = open_impl(path);
  if (!impl.ok()) return R::failure(impl.error());
  return Service(std::move(impl).value());
}

util::Result<std::uint64_t> Service::reload(const std::filesystem::path& path) {
  using R = util::Result<std::uint64_t>;
  const auto reject = [&](const std::string& why) {
    ++reloads_rejected_;
    return R::failure("wps reload rejected: " + why);
  };

  auto opened = open_impl(path);
  if (!opened.ok()) return reject(opened.error());
  std::unique_ptr<const Impl> fresh = std::move(opened).value();

  // A candidate that needed *any* degraded-open machinery is refused whole:
  // reload is a chosen act with a healthy incumbent, so the bar is pristine,
  // not merely survivable.
  if (fresh->footer_recovered || fresh->sections_rejected != 0 ||
      fresh->tail_bytes_quarantined != 0) {
    return reject("candidate needed damage recovery (footer/sections/tail)");
  }
  // Every payload CRC is checked up front, so each tile arrives verified in
  // the new epoch and no query into it pays or fails the check later. The
  // checks run in chunks of 64 on the shared pool (reload's precondition:
  // nothing else runs on this Service meanwhile). The MAC index is item 0,
  // so its one long CRC starts first while the other participants take the
  // tiles. The refusal then names the lowest-index failing tile, as a serial
  // loop would.
  util::ThreadPool::shared().run_chunks(
      fresh->tiles.size() + 1, 64, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (i == 0) {
            fresh->ensure_mac_index();
          } else {
            fresh->ensure_verified(i - 1);
          }
        }
      });
  for (std::size_t t = 0; t < fresh->tiles.size(); ++t) {
    if (!fresh->ensure_verified(t)) {
      const TileKey& key = fresh->tiles[t].key;
      return reject("tile (" + std::to_string(key.x) + ", " + std::to_string(key.y) +
                    ") failed its CRC");
    }
  }
  if (fresh->mac_index_present && !fresh->ensure_mac_index()) {
    return reject("MAC index failed its check");
  }

  impl_ = std::move(fresh);
  ++reloads_;
  return R(++epoch_);
}

std::uint64_t Service::prewarm(std::size_t parallelism) const {
  const Impl& im = *impl_;
  if (im.tiles.empty()) {
    im.ensure_mac_index();
    return 0;
  }
  std::atomic<std::uint64_t> usable{0};
  util::ThreadPool::shared().run_chunks(
      im.tiles.size(), 4, parallelism,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          if (im.ensure_index(t) != nullptr) {
            usable.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  im.ensure_mac_index();
  return usable.load(std::memory_order_relaxed);
}

std::optional<WpsAp> Service::lookup(const net80211::MacAddress& bssid) const {
  const Impl& im = *impl_;
  const std::uint64_t key = bssid.to_u64();

  if (im.ensure_mac_index()) {
    const std::uint8_t* entries = im.data + im.mac_index_off;
    std::uint64_t lo = 0;
    std::uint64_t hi = im.mac_index_count;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const std::uint64_t mac = util::load_u64(entries + mid * kMacIndexEntryBytes);
      if (mac < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < im.mac_index_count &&
        util::load_u64(entries + lo * kMacIndexEntryBytes) == key) {
      const std::uint64_t g = util::load_u64(entries + lo * kMacIndexEntryBytes + 8);
      return im.record_by_global_index(g);
    }
    return std::nullopt;
  }

  // No (usable) MAC index: records are BSSID-ascending within each tile, so
  // binary-search every verifiable tile. O(tiles * log) — degraded, correct.
  for (std::size_t t = 0; t < im.tiles.size(); ++t) {
    const Impl::TileMeta& m = im.tiles[t];
    if (m.count == 0 || !im.ensure_verified(t)) continue;
    std::uint64_t lo = 0;
    std::uint64_t hi = m.count;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (im.record_at(m, mid).bssid < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < m.count) {
      const PackedRecord r = im.record_at(m, lo);
      if (r.bssid == key) return Impl::to_ap(r);
    }
  }
  return std::nullopt;
}

std::vector<WpsAp> Service::range(geo::Vec2 center, double radius_m) const {
  const Impl& im = *impl_;
  std::vector<WpsAp> out;
  if (!(radius_m >= 0.0) || im.tiles.empty()) return out;  // rejects NaN too

  // Widened like Atlas's cell rectangle, so a record at exactly the radius
  // in the tile across an edge is not dropped by rounding.
  const double reach = geo::widened_radius(radius_m, center);
  const std::int64_t tx_lo = tile_coord(center.x - reach, im.tile_size);
  const std::int64_t tx_hi = tile_coord(center.x + reach, im.tile_size);
  const std::int64_t ty_lo = tile_coord(center.y - reach, im.tile_size);
  const std::int64_t ty_hi = tile_coord(center.y + reach, im.tile_size);

  std::vector<geo::SpatialIndex::Id> hits;
  const auto scan_tile = [&](std::size_t t) {
    const geo::SpatialIndex* index = im.ensure_index(t);
    if (index == nullptr) return;
    const Impl::TileMeta& meta = im.tiles[t];
    index->query_disc(im.points_of(meta), center, radius_m, hits);
    for (const geo::SpatialIndex::Id local : hits) {
      out.push_back(Impl::to_ap(im.record_at(meta, local)));
    }
  };

  // Same traversal split as Atlas: a huge radius degenerates to visiting
  // every tile rather than a huge empty rectangle of keys.
  const auto span_x = static_cast<std::uint64_t>(tx_hi - tx_lo + 1);
  const auto span_y = static_cast<std::uint64_t>(ty_hi - ty_lo + 1);
  if (span_x > im.tiles.size() || span_y > im.tiles.size() ||
      span_x * span_y > im.tiles.size()) {
    for (std::size_t t = 0; t < im.tiles.size(); ++t) {
      const TileKey& k = im.tiles[t].key;
      if (k.x < tx_lo || k.x > tx_hi || k.y < ty_lo || k.y > ty_hi) continue;
      scan_tile(t);
    }
  } else {
    for (std::int64_t ty = ty_lo; ty <= ty_hi; ++ty) {
      for (std::int64_t tx = tx_lo; tx <= tx_hi; ++tx) {
        const auto it = im.tile_lookup.find({tx, ty});
        if (it != im.tile_lookup.end()) scan_tile(it->second);
      }
    }
  }
  // Cross-tile merge: ascending BSSID, the exact order the in-memory
  // database's ascending-sorted-record ids produce.
  std::sort(out.begin(), out.end(),
            [](const WpsAp& a, const WpsAp& b) { return a.bssid < b.bssid; });
  return out;
}

std::vector<WpsAp> Service::nearest_k(geo::Vec2 center, std::size_t k) const {
  const Impl& im = *impl_;
  std::vector<WpsAp> out;
  if (k == 0 || im.tiles.empty()) return out;

  // Expanding Chebyshev rings of *tiles* around the query's tile. A tile in
  // ring m holds points at distance >= (m-1)*tile_size, so once the k-th
  // best distance beats ring*tile_size no farther ring matters — the same
  // bound Atlas uses at cell granularity.
  const double tile = im.tile_size;
  const TileKey t0{tile_coord(center.x, tile), tile_coord(center.y, tile)};
  const auto iabs = [](std::int64_t v) { return v < 0 ? -v : v; };
  const std::int64_t max_ring = std::max(
      std::max(iabs(t0.x - im.tile_lo.x), iabs(im.tile_hi.x - t0.x)),
      std::max(iabs(t0.y - im.tile_lo.y), iabs(im.tile_hi.y - t0.y)));
  // Rings closer than the tile bounding box are provably empty; a query far
  // outside the mapped world jumps straight to the first populated ring.
  const std::int64_t ring_start = std::max<std::int64_t>(
      0, std::max(std::max(im.tile_lo.x - t0.x, t0.x - im.tile_hi.x),
                  std::max(im.tile_lo.y - t0.y, t0.y - im.tile_hi.y)));

  struct Candidate {
    double dist;
    std::uint64_t bssid;
    PackedRecord record;
  };
  const auto by_rank = [](const Candidate& a, const Candidate& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.bssid < b.bssid;
  };
  // Max-heap of the k best candidates by (distance, BSSID); front() is the
  // current k-th best.
  std::vector<Candidate> best;
  best.reserve(std::min<std::uint64_t>(k, im.records_total));
  const auto offer = [&](const PackedRecord& r) {
    const Candidate c{geo::Vec2{r.x, r.y}.distance_to(center), r.bssid, r};
    if (best.size() < k) {
      best.push_back(c);
      std::push_heap(best.begin(), best.end(), by_rank);
    } else if (by_rank(c, best.front())) {
      std::pop_heap(best.begin(), best.end(), by_rank);
      best.back() = c;
      std::push_heap(best.begin(), best.end(), by_rank);
    }
  };
  // True when every record at least `bound` away loses to the current k-th
  // best. A strict beat leaves exact ties to the (distance, BSSID) order.
  const auto beaten = [&](double bound) {
    return best.size() == k && geo::shaved_bound(bound, center) > best.front().dist;
  };
  // How far the center lies beyond a tile's near edge along one axis. The
  // edge is picked by key, not by coordinate, so the gap stays a lower
  // bound for the +-2^40 tiles tile_coord clamps far coordinates into.
  const auto axis_gap = [tile](std::int64_t key, std::int64_t key0, double c) {
    if (key > key0) return std::max(0.0, static_cast<double>(key) * tile - c);
    if (key < key0) return std::max(0.0, c - static_cast<double>(key + 1) * tile);
    return 0.0;
  };

  // Until k candidates are held, a tile contributes its local top-k, which
  // is a superset of its share of the global (distance, BSSID) top-k because
  // local id order IS BSSID order inside a tile. From then on a tile whose
  // rectangle lies beyond the k-th distance is skipped, and a nearer one
  // contributes only its points within that distance.
  std::vector<geo::SpatialIndex::Id> hits;
  const auto scan_tile = [&](std::int64_t tx, std::int64_t ty) {
    const auto it = im.tile_lookup.find({tx, ty});
    if (it == im.tile_lookup.end()) return;
    if (beaten(std::hypot(axis_gap(tx, t0.x, center.x), axis_gap(ty, t0.y, center.y)))) {
      return;
    }
    const geo::SpatialIndex* index = im.ensure_index(it->second);
    if (index == nullptr) return;
    const Impl::TileMeta& meta = im.tiles[it->second];
    const geo::PointView points = im.points_of(meta);
    if (best.size() < k) {
      for (const geo::SpatialIndex::Id local : index->nearest_k(points, center, k)) {
        offer(im.record_at(meta, local));
      }
    } else {
      index->query_disc(points, center, best.front().dist, hits);
      for (const geo::SpatialIndex::Id local : hits) offer(im.record_at(meta, local));
    }
  };

  for (std::int64_t ring = ring_start; ring <= max_ring; ++ring) {
    if (ring == 0) {
      scan_tile(t0.x, t0.y);
    } else {
      // Each perimeter segment is clipped to the tile bounding box — a far
      // query's early rings intersect the box in a short arc, not the full
      // (potentially astronomically wide) ring perimeter.
      const std::int64_t x_lo = std::max(t0.x - ring, im.tile_lo.x);
      const std::int64_t x_hi = std::min(t0.x + ring, im.tile_hi.x);
      if (t0.y - ring >= im.tile_lo.y && t0.y - ring <= im.tile_hi.y) {
        for (std::int64_t tx = x_lo; tx <= x_hi; ++tx) scan_tile(tx, t0.y - ring);
      }
      if (t0.y + ring >= im.tile_lo.y && t0.y + ring <= im.tile_hi.y) {
        for (std::int64_t tx = x_lo; tx <= x_hi; ++tx) scan_tile(tx, t0.y + ring);
      }
      const std::int64_t y_lo = std::max(t0.y - ring + 1, im.tile_lo.y);
      const std::int64_t y_hi = std::min(t0.y + ring - 1, im.tile_hi.y);
      if (t0.x - ring >= im.tile_lo.x && t0.x - ring <= im.tile_hi.x) {
        for (std::int64_t ty = y_lo; ty <= y_hi; ++ty) scan_tile(t0.x - ring, ty);
      }
      if (t0.x + ring >= im.tile_lo.x && t0.x + ring <= im.tile_hi.x) {
        for (std::int64_t ty = y_lo; ty <= y_hi; ++ty) scan_tile(t0.x + ring, ty);
      }
    }
    if (beaten(static_cast<double>(ring) * tile)) break;
  }

  std::sort_heap(best.begin(), best.end(), by_rank);
  out.reserve(best.size());
  for (const Candidate& c : best) out.push_back(Impl::to_ap(c.record));
  return out;
}

std::size_t Service::size() const noexcept { return impl_->records_total; }
geo::Geodetic Service::origin() const noexcept { return impl_->origin; }
double Service::tile_size_m() const noexcept { return impl_->tile_size; }

TileKey Service::tile_of(geo::Vec2 p) const noexcept {
  return {tile_coord(p.x, impl_->tile_size), tile_coord(p.y, impl_->tile_size)};
}

ServiceStats Service::stats() const {
  const Impl& im = *impl_;
  ServiceStats s;
  s.records_total = im.records_total;
  s.tiles_total = im.tiles.size();
  s.sections_rejected = im.sections_rejected;
  s.tail_bytes_quarantined = im.tail_bytes_quarantined;
  s.footer_recovered = im.footer_recovered;
  s.mac_index_present = im.mac_index_present;
  s.mac_index_damaged = im.mac_index_damaged.load(std::memory_order_acquire);
  s.tiles_quarantined = im.tiles_quarantined.load(std::memory_order_relaxed);
  s.records_quarantined = im.records_quarantined.load(std::memory_order_relaxed);
  s.index_bytes = im.index_bytes.load(std::memory_order_relaxed);
  s.epoch = epoch_;
  s.reloads = reloads_;
  s.reloads_rejected = reloads_rejected_;
  return s;
}

marauder::ApDatabase Service::materialize() const {
  const Impl& im = *impl_;
  marauder::ApDatabase db;
  for (std::size_t t = 0; t < im.tiles.size(); ++t) {
    if (!im.ensure_verified(t)) continue;
    const Impl::TileMeta& m = im.tiles[t];
    for (std::uint64_t i = 0; i < m.count; ++i) {
      const PackedRecord r = im.record_at(m, i);
      marauder::KnownAp ap;
      ap.bssid = net80211::MacAddress::from_u64(r.bssid);
      ap.position = {r.x, r.y};
      if (r.has_radius()) ap.radius_m = r.radius_m;
      db.add(std::move(ap));
    }
  }
  return db;
}

}  // namespace mm::wps
