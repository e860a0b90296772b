// Basilisk snapshot damage drills: torn tails, flipped bits, and stale
// footers must degrade a Service to its surviving tiles — counted in
// ServiceStats, never thrown — mirroring the Phoenix checkpoint fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "durability/crc32c.h"
#include "unique_temp_path.h"
#include "util/rng.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"

namespace mm::wps {
namespace {

namespace fs = std::filesystem;

fs::path temp_path(const std::string& name) {
  const fs::path p = testing_support::unique_temp_path(name);
  fs::remove(p);
  return p;
}

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

marauder::ApDatabase grid_db(std::size_t per_side, double spacing) {
  marauder::ApDatabase db;
  std::uint64_t next = 0x021111000000ULL;
  for (std::size_t ix = 0; ix < per_side; ++ix) {
    for (std::size_t iy = 0; iy < per_side; ++iy) {
      marauder::KnownAp ap;
      ap.bssid = net80211::MacAddress::from_u64(next++);
      ap.position = {static_cast<double>(ix) * spacing,
                     static_cast<double>(iy) * spacing};
      ap.radius_m = 80.0;
      db.add(std::move(ap));
    }
  }
  return db;
}

struct SectionView {
  std::size_t header_off = 0;
  std::size_t payload_off = 0;
  std::uint64_t payload_len = 0;
  std::uint8_t type = 0;
};

/// Walks the section chain exactly as the recovery scan does, stopping at
/// the footer magic.
std::vector<SectionView> sections_of(const std::vector<std::uint8_t>& bytes) {
  std::vector<SectionView> out;
  std::size_t off = kFileHeaderBytes;
  while (off + kSectionHeaderBytes <= bytes.size()) {
    if (std::memcmp(bytes.data() + off, kSectionMagic.data(), 4) != 0) break;
    SectionView s;
    s.header_off = off;
    s.type = bytes[off + 4];
    std::memcpy(&s.payload_len, bytes.data() + off + 24, 8);
    s.payload_off = off + kSectionHeaderBytes;
    out.push_back(s);
    off = s.payload_off + s.payload_len;
  }
  return out;
}

/// A pristine snapshot of a 40x40 grid sliced into many 512 m tiles.
struct Fixture {
  marauder::ApDatabase db;
  std::vector<std::uint8_t> pristine;
  fs::path path;

  explicit Fixture(const std::string& name) : db(grid_db(40, 130.0)), path(temp_path(name)) {
    SnapshotBuildOptions build;
    build.fsync = false;
    auto stats = write_snapshot(db, geo::Geodetic{}, path, build);
    EXPECT_TRUE(stats.ok()) << stats.error();
    pristine = read_file(path);
    EXPECT_EQ(pristine.size(), stats.value().file_bytes);
  }

  Service open_bytes(const std::vector<std::uint8_t>& bytes) {
    write_file(path, bytes);
    auto service = Service::open(path);
    EXPECT_TRUE(service.ok()) << service.error();
    return std::move(service).value();
  }
};

TEST(WpsSnapshot, PristineStatsAreClean) {
  Fixture fx("mm_snap_clean.wps");
  const Service service = fx.open_bytes(fx.pristine);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.records_total, fx.db.size());
  EXPECT_GT(stats.tiles_total, 50u);
  EXPECT_EQ(stats.sections_rejected, 0u);
  EXPECT_EQ(stats.tail_bytes_quarantined, 0u);
  EXPECT_FALSE(stats.footer_recovered);
  EXPECT_TRUE(stats.mac_index_present);
}

TEST(WpsSnapshot, TruncatedTrailerRecoversEverythingByScan) {
  Fixture fx("mm_snap_trailer.wps");
  auto bytes = fx.pristine;
  bytes.resize(bytes.size() - 10);  // tear mid-trailer
  const Service service = fx.open_bytes(bytes);
  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.footer_recovered);
  EXPECT_EQ(stats.records_total, fx.db.size());
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    EXPECT_TRUE(service.lookup(ap->bssid).has_value());
  }
}

TEST(WpsSnapshot, TruncatedMidSectionServesSurvivingTiles) {
  Fixture fx("mm_snap_torn.wps");
  const auto sections = sections_of(fx.pristine);
  ASSERT_GT(sections.size(), 3u);
  // Cut inside the third-from-last section: everything before it survives.
  const SectionView& cut = sections[sections.size() - 3];
  auto bytes = fx.pristine;
  bytes.resize(cut.payload_off + cut.payload_len / 2);
  const Service service = fx.open_bytes(bytes);
  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.footer_recovered);
  EXPECT_GT(stats.tail_bytes_quarantined, 0u);
  EXPECT_LT(stats.records_total, fx.db.size());
  EXPECT_GT(stats.records_total, 0u);
  // Every surviving record answers bit-exact; lost BSSIDs answer nullopt.
  std::size_t hits = 0;
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    if (!got) continue;
    ++hits;
    EXPECT_EQ(got->bssid, ap->bssid);
    EXPECT_EQ(got->position.x, ap->position.x);
    EXPECT_EQ(got->position.y, ap->position.y);
  }
  EXPECT_EQ(hits, stats.records_total);
}

TEST(WpsSnapshot, BitFlipQuarantinesOneTile) {
  Fixture fx("mm_snap_flip.wps");
  const auto sections = sections_of(fx.pristine);
  const SectionView* victim = nullptr;
  for (const auto& s : sections) {
    if (s.type == static_cast<std::uint8_t>(SectionType::kTileRecords) &&
        s.payload_len > 0) {
      victim = &s;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  auto bytes = fx.pristine;
  bytes[victim->payload_off + 17] ^= 0x40;  // one flipped bit in one record
  const Service service = fx.open_bytes(bytes);
  EXPECT_EQ(service.stats().tiles_quarantined, 0u) << "quarantine must be lazy";

  const std::uint64_t victim_records = victim->payload_len / kRecordBytes;
  std::size_t hits = 0;
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    if (service.lookup(ap->bssid)) ++hits;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tiles_quarantined, 1u);
  EXPECT_EQ(stats.records_quarantined, victim_records);
  EXPECT_EQ(hits, fx.db.size() - victim_records);

  // Geometric queries skip the quarantined tile and stay sane elsewhere.
  const auto everything = service.range({2600.0, 2600.0}, 1.0e7);
  EXPECT_EQ(everything.size(), fx.db.size() - victim_records);
}

TEST(WpsSnapshot, StaleFooterEntryIsRejected) {
  Fixture fx("mm_snap_stale.wps");
  const auto sections = sections_of(fx.pristine);
  ASSERT_GT(sections.size(), 4u);
  // Rewrite one body section header (tile.y nudged) and repair its header
  // CRC: the header itself parses, but the footer's verbatim copy no longer
  // matches — a footer gone stale relative to the body it indexes.
  const SectionView& victim = sections[1];
  ASSERT_EQ(victim.type, static_cast<std::uint8_t>(SectionType::kTileRecords));
  auto bytes = fx.pristine;
  bytes[victim.header_off + 16] ^= 0x01;
  const std::uint32_t crc =
      durability::crc32c({bytes.data() + victim.header_off, 44});
  std::memcpy(bytes.data() + victim.header_off + 44, &crc, 4);
  const Service service = fx.open_bytes(bytes);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.sections_rejected, 1u);
  EXPECT_LT(stats.records_total, fx.db.size());

  // The MAC index maps global record numbers that no longer line up with
  // the surviving tiles; lookups must still be correct via tile fallback.
  const std::uint64_t victim_records = victim.payload_len / kRecordBytes;
  std::size_t hits = 0;
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    if (!got) continue;
    ++hits;
    EXPECT_EQ(got->position.x, ap->position.x);
    EXPECT_EQ(got->position.y, ap->position.y);
  }
  EXPECT_EQ(hits, fx.db.size() - victim_records);
}

TEST(WpsSnapshot, DamagedFooterFallsBackToScanWithZeroLoss) {
  Fixture fx("mm_snap_footer.wps");
  const auto sections = sections_of(fx.pristine);
  const std::size_t footer_off =
      sections.back().payload_off + sections.back().payload_len;
  auto bytes = fx.pristine;
  bytes[footer_off + 6] ^= 0x80;  // corrupt the footer table itself
  const Service service = fx.open_bytes(bytes);
  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.footer_recovered);
  EXPECT_EQ(stats.records_total, fx.db.size());
  EXPECT_EQ(stats.sections_rejected, 0u);
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    EXPECT_TRUE(service.lookup(ap->bssid).has_value());
  }
}

TEST(WpsSnapshot, DamagedMacIndexFallsBackToTileSearch) {
  Fixture fx("mm_snap_macidx.wps");
  const auto sections = sections_of(fx.pristine);
  const SectionView* mac = nullptr;
  for (const auto& s : sections) {
    if (s.type == static_cast<std::uint8_t>(SectionType::kMacIndex)) mac = &s;
  }
  ASSERT_NE(mac, nullptr);
  auto bytes = fx.pristine;
  bytes[mac->payload_off + 3] ^= 0x10;
  const Service service = fx.open_bytes(bytes);
  EXPECT_TRUE(service.stats().mac_index_present);
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->position.x, ap->position.x);
  }
  EXPECT_TRUE(service.stats().mac_index_damaged);
  EXPECT_EQ(service.stats().tiles_quarantined, 0u);
}

TEST(WpsSnapshot, RandomDamageNeverThrows) {
  Fixture fx("mm_snap_fuzz.wps");
  util::Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    auto bytes = fx.pristine;
    if (rng.bernoulli(0.3)) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
    }
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips && !bytes.empty(); ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    write_file(fx.path, bytes);
    auto opened = Service::open(fx.path);
    if (!opened.ok()) continue;  // header damage may fail open; fine
    const Service service = std::move(opened).value();
    EXPECT_NO_THROW({
      for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
        (void)service.lookup(ap->bssid);
      }
      (void)service.range({1000.0, 1000.0}, 2000.0);
      (void)service.nearest_k({-500.0, 4000.0}, 12);
      (void)service.stats();
    });
  }
}

// --------------------------------------------------------------------------
// Reload admission: a candidate is checked whole before it may serve, so
// damage a hundred tiles away from anything a query touched still refuses
// it, and the incumbent keeps answering bit for bit.

/// Opens the pristine fixture as the incumbent and offers `damaged` as the
/// reload candidate; the candidate must be refused and change nothing.
/// Returns the refusal.
std::string expect_reload_refused(Fixture& fx, const std::vector<std::uint8_t>& damaged,
                                  const std::string& candidate_name) {
  Service service = fx.open_bytes(fx.pristine);
  const fs::path candidate = temp_path(candidate_name);
  write_file(candidate, damaged);
  const auto swapped = service.reload(candidate);
  EXPECT_FALSE(swapped.ok());
  std::size_t answered = 0;
  for (const marauder::KnownAp* ap : fx.db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    if (!got) continue;
    ++answered;
    EXPECT_EQ(std::memcmp(&got->position, &ap->position, sizeof(geo::Vec2)), 0);
    EXPECT_EQ(got->radius_m, ap->radius_m);
  }
  EXPECT_EQ(answered, fx.db.size());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.reloads, 0u);
  EXPECT_EQ(stats.reloads_rejected, 1u);
  EXPECT_EQ(stats.tiles_quarantined, 0u);
  EXPECT_FALSE(stats.mac_index_damaged);
  return swapped.ok() ? std::string() : swapped.error();
}

/// The non-empty tile sections in file order, which is tile-key order.
std::vector<SectionView> tile_sections_of(const std::vector<std::uint8_t>& bytes) {
  std::vector<SectionView> tiles;
  for (const auto& s : sections_of(bytes)) {
    if (s.type == static_cast<std::uint8_t>(SectionType::kTileRecords) &&
        s.payload_len > 0) {
      tiles.push_back(s);
    }
  }
  return tiles;
}

TEST(WpsServiceReload, DamagedTileOutsideTheSampleIsRefused) {
  Fixture fx("mm_snap_reload_tile.wps");
  const std::vector<SectionView> tiles = tile_sections_of(fx.pristine);
  ASSERT_GE(tiles.size(), 100u);
  // One flipped bit in one record of one tile of a hundred: a check that
  // samples a few tiles would most likely let this candidate serve.
  auto bytes = fx.pristine;
  bytes[tiles[tiles.size() * 2 / 3].payload_off + 17] ^= 0x40;
  expect_reload_refused(fx, bytes, "mm_snap_reload_tile_candidate.wps");
}

TEST(WpsServiceReload, TwoDamagedTilesNameTheLowerOne) {
  // The whole-candidate check runs in parallel chunks, and either damaged
  // tile may fail first; the refusal still names the lower tile, as a
  // serial check would, on every try.
  Fixture fx("mm_snap_reload_two_tiles.wps");
  const std::vector<SectionView> tiles = tile_sections_of(fx.pristine);
  ASSERT_GE(tiles.size(), 100u);
  const SectionView& lower = tiles[tiles.size() / 5];
  const SectionView& upper = tiles[tiles.size() * 4 / 5];
  auto bytes = fx.pristine;
  bytes[upper.payload_off + 9] ^= 0x04;
  bytes[lower.payload_off + 25] ^= 0x80;
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::memcpy(&x, bytes.data() + lower.header_off + 8, sizeof(x));
  std::memcpy(&y, bytes.data() + lower.header_off + 16, sizeof(y));
  const std::string expected = "wps reload rejected: tile (" + std::to_string(x) + ", " +
                               std::to_string(y) + ") failed its CRC";
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(expect_reload_refused(fx, bytes, "mm_snap_reload_two_tiles_candidate.wps"),
              expected)
        << "attempt " << attempt;
  }
}

TEST(WpsServiceReload, DamagedMacIndexIsRefused) {
  Fixture fx("mm_snap_reload_macidx.wps");
  const auto sections = sections_of(fx.pristine);
  const SectionView* mac = nullptr;
  for (const auto& s : sections) {
    if (s.type == static_cast<std::uint8_t>(SectionType::kMacIndex)) mac = &s;
  }
  ASSERT_NE(mac, nullptr);
  auto bytes = fx.pristine;
  bytes[mac->payload_off + 3] ^= 0x10;
  expect_reload_refused(fx, bytes, "mm_snap_reload_macidx_candidate.wps");
}

TEST(WpsSnapshot, RebuildOverwritesAtomically) {
  const fs::path path = temp_path("mm_snap_rewrite.wps");
  SnapshotBuildOptions build;
  build.fsync = false;
  auto first = write_snapshot(grid_db(10, 100.0), geo::Geodetic{}, path, build);
  ASSERT_TRUE(first.ok());
  auto second = write_snapshot(grid_db(12, 100.0), geo::Geodetic{}, path, build);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  auto service = Service::open(path);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service.value().size(), 144u);
}

TEST(WpsSnapshot, IdenticalInputsProduceIdenticalBytes) {
  const fs::path p1 = temp_path("mm_snap_pure1.wps");
  const fs::path p2 = temp_path("mm_snap_pure2.wps");
  SnapshotBuildOptions build;
  build.fsync = false;
  const auto db = grid_db(15, 90.0);
  ASSERT_TRUE(write_snapshot(db, geo::Geodetic{1, 2, 3}, p1, build).ok());
  ASSERT_TRUE(write_snapshot(db, geo::Geodetic{1, 2, 3}, p2, build).ok());
  EXPECT_EQ(read_file(p1), read_file(p2));
}

// The writer sorts by (tile, BSSID) from keys it computes once per record.
// BSSIDs are unique, so that is a total order: any input order gives the same
// file, and the records come back in the order a direct (tile, BSSID)
// comparison gives — negative, NaN, infinite and +-2^40-clamped coordinates
// and points on tile edges included.
TEST(WpsSnapshot, ShuffledInputsProduceIdenticalBytes) {
  constexpr double kTile = 512.0;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kClamp = 1099511627776.0 * kTile;  // tile 2^40, the clamp
  util::Rng rng(0x5AFF1E);
  const auto coordinate = [&] {
    const double dice = rng.uniform(0.0, 1.0);
    const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    if (dice < 0.55) return rng.uniform(-3000.0, 3000.0);
    if (dice < 0.65) return kNan;
    if (dice < 0.72) return sign * 1e300;
    if (dice < 0.77) return sign * kInf;
    if (dice < 0.85) return sign * (kClamp + kTile * static_cast<double>(rng.uniform_int(0, 3)));
    return kTile * static_cast<double>(rng.uniform_int(-6, 6));  // on a tile edge
  };
  std::vector<PackedRecord> records(3000);
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Distinct BSSIDs in no particular order: 7919 is coprime to 100000.
    records[i].bssid = 0x02aa00000000ULL + (i * 7919) % 100000;
    records[i].x = coordinate();
    records[i].y = coordinate();
    records[i].radius_m = rng.bernoulli(0.5) ? rng.uniform(20.0, 150.0) : no_radius();
  }

  SnapshotBuildOptions build;
  build.fsync = false;
  build.tile_size_m = kTile;
  const geo::Geodetic origin{1, 2, 3};
  const fs::path first_path = temp_path("mm_snap_shuffled_first.wps");
  std::vector<PackedRecord> first = records;
  ASSERT_TRUE(write_snapshot(first, origin, first_path, build).ok());
  const std::vector<std::uint8_t> first_bytes = read_file(first_path);
  const auto before = [&](const PackedRecord& a, const PackedRecord& b) {
    const TileKey ta{tile_coord(a.x, kTile), tile_coord(a.y, kTile)};
    const TileKey tb{tile_coord(b.x, kTile), tile_coord(b.y, kTile)};
    return ta != tb ? ta < tb : a.bssid < b.bssid;
  };
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end(), before));

  const fs::path path = temp_path("mm_snap_shuffled.wps");
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<PackedRecord> shuffled = records;
    if (trial == 1) {
      std::reverse(shuffled.begin(), shuffled.end());
    } else if (trial > 1) {
      rng.shuffle(shuffled);
    }
    ASSERT_TRUE(write_snapshot(shuffled, origin, path, build).ok());
    EXPECT_EQ(read_file(path), first_bytes) << "trial " << trial;
    EXPECT_EQ(std::memcmp(shuffled.data(), first.data(), first.size() * sizeof(PackedRecord)), 0)
        << "trial " << trial;
  }

  auto service = Service::open(first_path);
  ASSERT_TRUE(service.ok()) << service.error();
  EXPECT_EQ(service.value().size(), records.size());
  EXPECT_EQ(service.value().prewarm(2), service.value().stats().tiles_total);
  for (const PackedRecord& r : records) {
    EXPECT_TRUE(service.value().lookup(net80211::MacAddress::from_u64(r.bssid)).has_value());
  }
}

}  // namespace
}  // namespace mm::wps
