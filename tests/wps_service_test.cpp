// Basilisk determinism contract: a wps::Service over an mmapped snapshot is
// bit-identical to the in-memory ApDatabase it was built from, for every
// query shape, from any number of threads, with or without the MAC index.
#include "wps/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "unique_temp_path.h"
#include "util/rng.h"
#include "wps/snapshot_writer.h"
#include "wps/surveil.h"

namespace mm::wps {
namespace {

namespace fs = std::filesystem;

fs::path temp_path(const std::string& name) {
  const fs::path p = testing_support::unique_temp_path(name);
  fs::remove(p);
  return p;
}

/// A clustered random database: uniform cluster centers, Gaussian blobs, a
/// sprinkle of far outliers — the shape city AP data actually has.
marauder::ApDatabase random_db(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  marauder::ApDatabase db;
  std::vector<geo::Vec2> centers;
  const std::size_t n_clusters = 1 + n / 200;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    centers.push_back({rng.uniform(-4000.0, 4000.0), rng.uniform(-4000.0, 4000.0)});
  }
  for (std::size_t i = 0; i < n; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x020000000000ULL + rng.next_u64() % (4 * n));
    if (rng.bernoulli(0.05)) {
      ap.position = {rng.uniform(-50000.0, 50000.0), rng.uniform(-50000.0, 50000.0)};
    } else {
      const geo::Vec2 c = centers[i % centers.size()];
      ap.position = {c.x + rng.gaussian(0.0, 150.0), c.y + rng.gaussian(0.0, 150.0)};
    }
    if (rng.bernoulli(0.6)) ap.radius_m = rng.uniform(20.0, 150.0);
    db.add(std::move(ap));
  }
  return db;
}

Service open_snapshot_of(const marauder::ApDatabase& db, const std::string& name,
                         SnapshotBuildOptions build = {}) {
  const fs::path path = temp_path(name);
  build.fsync = false;
  auto stats = write_snapshot(db, geo::Geodetic{47.6, -122.3, 0.0}, path, build);
  EXPECT_TRUE(stats.ok()) << stats.error();
  auto service = Service::open(path);
  EXPECT_TRUE(service.ok()) << service.error();
  return std::move(service).value();
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

void expect_same_ap(const WpsAp& got, const marauder::KnownAp& want) {
  EXPECT_EQ(got.bssid, want.bssid);
  EXPECT_TRUE(bits_equal(got.position.x, want.position.x));
  EXPECT_TRUE(bits_equal(got.position.y, want.position.y));
  ASSERT_EQ(got.radius_m.has_value(), want.radius_m.has_value());
  if (got.radius_m) {
    EXPECT_TRUE(bits_equal(*got.radius_m, *want.radius_m));
  }
}

void expect_same_list(const std::vector<WpsAp>& got,
                      const std::vector<const marauder::KnownAp*>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_same_ap(got[i], *want[i]);
}

TEST(WpsService, LookupMatchesDatabaseFind) {
  const auto db = random_db(11, 5000);
  const Service service = open_snapshot_of(db, "mm_wps_lookup.wps");
  EXPECT_EQ(service.size(), db.size());
  ASSERT_TRUE(service.stats().mac_index_present);
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    ASSERT_TRUE(got.has_value());
    expect_same_ap(*got, *ap);
  }
  EXPECT_FALSE(service.lookup(net80211::MacAddress::from_u64(0x99ULL)).has_value());
  EXPECT_FALSE(
      service.lookup(net80211::MacAddress::from_u64(0xffffffffffffULL)).has_value());
}

TEST(WpsService, LookupFallbackWithoutMacIndex) {
  const auto db = random_db(12, 2000);
  SnapshotBuildOptions build;
  build.mac_index = false;
  const Service service = open_snapshot_of(db, "mm_wps_nomacidx.wps", build);
  EXPECT_FALSE(service.stats().mac_index_present);
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    ASSERT_TRUE(got.has_value());
    expect_same_ap(*got, *ap);
  }
  EXPECT_FALSE(service.lookup(net80211::MacAddress::from_u64(0x99ULL)).has_value());
}

TEST(WpsService, RangeMatchesApsInRange) {
  const auto db = random_db(13, 4000);
  const Service service = open_snapshot_of(db, "mm_wps_range.wps");
  util::Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    const geo::Vec2 c{rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)};
    const double r = rng.uniform(0.0, 3000.0);
    expect_same_list(service.range(c, r), db.aps_in_range(c, r));
  }
  // Radius zero, exact hit, and a disc covering everything.
  const geo::Vec2 at = db.sorted_records().front()->position;
  expect_same_list(service.range(at, 0.0), db.aps_in_range(at, 0.0));
  expect_same_list(service.range({0, 0}, 1e7), db.aps_in_range({0, 0}, 1e7));
}

TEST(WpsService, NearestKMatchesNearestAps) {
  const auto db = random_db(14, 4000);
  const Service service = open_snapshot_of(db, "mm_wps_nearest.wps");
  util::Rng rng(100);
  for (int i = 0; i < 40; ++i) {
    const geo::Vec2 c{rng.uniform(-6000.0, 6000.0), rng.uniform(-6000.0, 6000.0)};
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 40));
    expect_same_list(service.nearest_k(c, k), db.nearest_aps(c, k));
  }
  expect_same_list(service.nearest_k({10, 10}, 0), db.nearest_aps({10, 10}, 0));
  expect_same_list(service.nearest_k({10, 10}, db.size() + 5),
                   db.nearest_aps({10, 10}, db.size() + 5));
}

TEST(WpsService, NearestKTiesResolveByBssid) {
  marauder::ApDatabase db;
  // Four APs equidistant from the origin, spread across four tiles.
  for (int i = 0; i < 4; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x100ULL + static_cast<unsigned>(3 - i));
    const double sx = (i & 1) ? 700.0 : -700.0;
    const double sy = (i & 2) ? 700.0 : -700.0;
    ap.position = {sx, sy};
    db.add(std::move(ap));
  }
  const Service service = open_snapshot_of(db, "mm_wps_ties.wps");
  for (std::size_t k = 1; k <= 4; ++k) {
    expect_same_list(service.nearest_k({0, 0}, k), db.nearest_aps({0, 0}, k));
  }
}

TEST(WpsService, FarAwayQueryCenters) {
  const auto db = random_db(15, 800);
  const Service service = open_snapshot_of(db, "mm_wps_far.wps");
  for (const double far : {1.0e9, -3.0e12, 5.0e15}) {
    const geo::Vec2 c{far, -far};
    expect_same_list(service.nearest_k(c, 7), db.nearest_aps(c, 7));
    expect_same_list(service.range(c, 100.0), db.aps_in_range(c, 100.0));
  }
}

// --------------------------------------------------------------------------
// Brute-force oracle for nearest_k. The tests above compare against
// db.nearest_aps, which runs the same Atlas nearest_k as each tile of the
// service, so a bug both share would pass both sides; these compare against
// a full (distance, BSSID) sort of every record instead.

std::vector<const marauder::KnownAp*> brute_nearest(const marauder::ApDatabase& db,
                                                    geo::Vec2 center, std::size_t k) {
  std::vector<const marauder::KnownAp*> ranked = db.sorted_records();  // ascending BSSID
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const marauder::KnownAp* a, const marauder::KnownAp* b) {
                     return a->position.distance_to(center) < b->position.distance_to(center);
                   });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void expect_brute_nearest(const Service& service, const marauder::ApDatabase& db,
                          geo::Vec2 center, std::size_t k) {
  SCOPED_TRACE(testing::Message() << "center (" << center.x << ", " << center.y << ") k " << k);
  expect_same_list(service.nearest_k(center, k), brute_nearest(db, center, k));
}

marauder::KnownAp ap_at(std::uint64_t bssid, geo::Vec2 position) {
  marauder::KnownAp ap;
  ap.bssid = net80211::MacAddress::from_u64(bssid);
  ap.position = position;
  return ap;
}

/// Distinct BSSIDs whose order has nothing to do with insertion order.
std::uint64_t scrambled_bssid(std::uint64_t i) {
  return 0x020000000000ULL + (i * 0x9E3779B1ULL) % (std::uint64_t{1} << 40);
}

TEST(WpsService, RangeBruteForceAtExactRadiusAcrossTileEdge) {
  // APs 1e-17 m below the x = 0 and y = 0 tile edges, each exactly 1 m from
  // a query whose center -/+ radius rounds onto the edge: neither the tile
  // rectangle nor the tile's cell rectangle may round them away.
  marauder::ApDatabase db;
  db.add(ap_at(0x300, {-1e-17, 0.0}));
  db.add(ap_at(0x301, {0.0, -1e-17}));
  db.add(ap_at(0x302, {2.0, 0.0}));
  db.add(ap_at(0x303, {700.0, -300.0}));
  const Service service = open_snapshot_of(db, "mm_wps_range_edge.wps");
  for (const geo::Vec2 center : {geo::Vec2{1.0, 0.0}, geo::Vec2{0.0, 1.0}}) {
    std::vector<const marauder::KnownAp*> brute;
    for (const marauder::KnownAp* ap : db.sorted_records()) {
      if (ap->position.distance_to(center) <= 1.0) brute.push_back(ap);
    }
    ASSERT_FALSE(brute.empty());
    EXPECT_EQ(brute.front()->position.x, -1e-17);  // at exactly the radius
    expect_same_list(service.range(center, 1.0), brute);
  }
}

TEST(WpsService, DenseTileBesideSingleApTiles) {
  // 2,400 APs in tile (0, 0) of 512 m tiles, a 400-AP blob of them within a
  // few metres, and one AP in each tile around it: a tile grid of thousands
  // of cells beside one-cell grids, queried across all of them.
  util::Rng rng(47);
  marauder::ApDatabase db;
  std::uint64_t next = 0;
  for (int i = 0; i < 2000; ++i) {
    db.add(ap_at(scrambled_bssid(next++), {rng.uniform(1.0, 511.0), rng.uniform(1.0, 511.0)}));
  }
  for (int i = 0; i < 400; ++i) {
    db.add(ap_at(scrambled_bssid(next++),
                 {300.0 + rng.gaussian(0.0, 2.0), 120.0 + rng.gaussian(0.0, 2.0)}));
  }
  for (int tx = -2; tx <= 3; ++tx) {
    for (int ty = -2; ty <= 3; ++ty) {
      if (tx == 0 && ty == 0) continue;
      db.add(ap_at(scrambled_bssid(next++), {tx * 512.0 + rng.uniform(0.0, 512.0),
                                              ty * 512.0 + rng.uniform(0.0, 512.0)}));
    }
  }
  const Service service = open_snapshot_of(db, "mm_wps_dense_tile.wps");
  for (int q = 0; q < 60; ++q) {
    const geo::Vec2 c = q % 4 == 0 ? geo::Vec2{300.0 + rng.uniform(-5.0, 5.0),
                                               120.0 + rng.uniform(-5.0, 5.0)}
                                   : geo::Vec2{rng.uniform(-1200.0, 1800.0),
                                               rng.uniform(-1200.0, 1800.0)};
    const double r = rng.uniform(0.0, 700.0);
    std::vector<const marauder::KnownAp*> brute;
    for (const marauder::KnownAp* ap : db.sorted_records()) {
      if (ap->position.distance_to(c) <= r) brute.push_back(ap);
    }
    expect_same_list(service.range(c, r), db.aps_in_range(c, r));
    expect_same_list(service.range(c, r), brute);
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{300}}) {
      expect_same_list(service.nearest_k(c, k), db.nearest_aps(c, k));
      expect_brute_nearest(service, db, c, k);
    }
  }
}

TEST(WpsService, NearestKBruteForceSparseTiles) {
  // 400 APs over a 12 km square in 256 m tiles: most tiles hold 0-2 APs,
  // fewer than k, so every answer is gathered across many tiles.
  util::Rng rng(31);
  marauder::ApDatabase db;
  for (std::uint64_t i = 0; i < 400; ++i) {
    db.add(ap_at(scrambled_bssid(i), {rng.uniform(-6000.0, 6000.0), rng.uniform(-6000.0, 6000.0)}));
  }
  SnapshotBuildOptions build;
  build.tile_size_m = 256.0;
  const Service service = open_snapshot_of(db, "mm_wps_brute_sparse.wps", build);
  for (int i = 0; i < 60; ++i) {
    const geo::Vec2 c{rng.uniform(-7000.0, 7000.0), rng.uniform(-7000.0, 7000.0)};
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}, db.size() + 3}) {
      expect_brute_nearest(service, db, c, k);
    }
  }
}

TEST(WpsService, NearestKBruteForceTiesAcrossTiles) {
  // Query at the center of tile (0, 0). Six APs lie at exactly 300 m (axis
  // offsets and 3-4-5 diagonals), two of them inside the query's tile with
  // the largest BSSIDs: that tile is scanned first, so one of them is the
  // k-th candidate when the smaller-BSSID twins in the neighbouring tiles
  // are reached through the distance-pruned path, and BSSID alone must
  // decide. From a second center, an AP on tile (1, 0)'s west edge and one
  // inside the query's tile are both exactly 300 m away; at k = 6 the latter
  // is the k-th candidate when tile (1, 0) is reached, so the tile's lower
  // bound equals the k-th distance and the edge AP's smaller BSSID must win.
  marauder::ApDatabase db;
  db.add(ap_at(0x700, {266.0, 256.0}));  // 10 m
  db.add(ap_at(0x701, {256.0, 286.0}));  // 30 m
  db.add(ap_at(0x900, {436.0, 496.0}));  // 300 m, tile (0, 0)
  db.add(ap_at(0x901, {76.0, 16.0}));    // 300 m, tile (0, 0)
  db.add(ap_at(0x100, {-44.0, 256.0}));  // 300 m, tile (-1, 0)
  db.add(ap_at(0x101, {556.0, 256.0}));  // 300 m, tile (1, 0)
  db.add(ap_at(0x102, {256.0, -44.0}));  // 300 m, tile (0, -1)
  db.add(ap_at(0x902, {256.0, 556.0}));  // 300 m, tile (0, 1)
  db.add(ap_at(0x050, {512.0, 100.0}));  // on tile (1, 0)'s west edge
  db.add(ap_at(0x950, {32.0, 340.0}));   // 300 m from (212, 100), tile (0, 0)
  const Service service = open_snapshot_of(db, "mm_wps_brute_ties.wps");
  for (const geo::Vec2 c : {geo::Vec2{256.0, 256.0}, geo::Vec2{212.0, 100.0}}) {
    for (std::size_t k = 1; k <= db.size() + 1; ++k) expect_brute_nearest(service, db, c, k);
  }
}

TEST(WpsService, NearestKBruteForceOnTileEdgesAndCorners) {
  // APs on a 50 m lattice in 100 m tiles: every other lattice line is a
  // tile edge (x = n * tile_size), so points sit on tile edges and corners,
  // and lattice symmetry makes exact distance ties everywhere. BSSIDs are
  // scrambled so ties do not resolve in position order.
  marauder::ApDatabase db;
  std::uint64_t i = 0;
  for (int ix = -6; ix <= 6; ++ix) {
    for (int iy = -6; iy <= 6; ++iy) db.add(ap_at(scrambled_bssid(i++), {ix * 50.0, iy * 50.0}));
  }
  SnapshotBuildOptions build;
  build.tile_size_m = 100.0;
  const Service service = open_snapshot_of(db, "mm_wps_brute_edges.wps", build);
  std::vector<geo::Vec2> centers;
  for (int ix = -4; ix <= 4; ++ix) {
    for (int iy = -4; iy <= 4; iy += 2) {
      centers.push_back({ix * 100.0, iy * 100.0});         // tile corners
      centers.push_back({ix * 100.0, iy * 100.0 + 37.5});  // tile edges
      centers.push_back({ix * 50.0 + 25.0, iy * 50.0});    // between lattice points
    }
  }
  for (const geo::Vec2& c : centers) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{13}, db.size() + 1}) {
      expect_brute_nearest(service, db, c, k);
    }
  }
}

TEST(WpsService, NearestKBruteForceFarOutsideTheBox) {
  const auto db = random_db(32, 600);
  const Service service = open_snapshot_of(db, "mm_wps_brute_far.wps");
  for (const double far : {6.0e4, 1.0e6, 1.0e9, 1.0e13, 5.0e15}) {
    // Diagonally beyond a corner, and beyond one side while level with the
    // box on the other axis.
    for (const geo::Vec2 c : {geo::Vec2{far, -far}, geo::Vec2{-far, far}, geo::Vec2{far, 10.0},
                              geo::Vec2{0.0, -far}}) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{8}, db.size() + 2}) {
        expect_brute_nearest(service, db, c, k);
      }
    }
  }
}

TEST(WpsService, EmptySnapshot) {
  const marauder::ApDatabase db;
  const Service service = open_snapshot_of(db, "mm_wps_empty.wps");
  EXPECT_EQ(service.size(), 0u);
  EXPECT_FALSE(service.lookup(net80211::MacAddress::from_u64(1)).has_value());
  EXPECT_TRUE(service.range({0, 0}, 1000.0).empty());
  EXPECT_TRUE(service.nearest_k({0, 0}, 3).empty());
}

TEST(WpsService, MaterializeRebuildsDatabase) {
  const auto db = random_db(16, 1500);
  const Service service = open_snapshot_of(db, "mm_wps_mat.wps");
  const marauder::ApDatabase rebuilt = service.materialize();
  ASSERT_EQ(rebuilt.size(), db.size());
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    const marauder::KnownAp* got = rebuilt.find(ap->bssid);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(bits_equal(got->position.x, ap->position.x));
    EXPECT_TRUE(bits_equal(got->position.y, ap->position.y));
    ASSERT_EQ(got->radius_m.has_value(), ap->radius_m.has_value());
    if (got->radius_m) {
      EXPECT_TRUE(bits_equal(*got->radius_m, *ap->radius_m));
    }
  }
  // The rebuilt database answers queries exactly like the original.
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const geo::Vec2 c{rng.uniform(-4000.0, 4000.0), rng.uniform(-4000.0, 4000.0)};
    const auto a = db.nearest_aps(c, 9);
    const auto b = rebuilt.nearest_aps(c, 9);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j]->bssid, b[j]->bssid);
  }
}

// The concurrency contract: lazy tile verification and index construction
// race-free under many threads issuing mixed queries cold (TSan covers this
// target in CI).
TEST(WpsService, ConcurrentColdQueriesMatchOracle) {
  const auto db = random_db(17, 3000);
  const Service service = open_snapshot_of(db, "mm_wps_conc.wps");
  const auto records = db.sorted_records();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 60; ++i) {
        const geo::Vec2 c{rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)};
        const auto nearest = service.nearest_k(c, 5);
        const auto oracle = db.nearest_aps(c, 5);
        if (nearest.size() != oracle.size()) ++failures[t];
        for (std::size_t j = 0; j < std::min(nearest.size(), oracle.size()); ++j) {
          if (nearest[j].bssid != oracle[j]->bssid) ++failures[t];
        }
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(records.size()) - 1));
        const auto hit = service.lookup(records[idx]->bssid);
        if (!hit || hit->bssid != records[idx]->bssid) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tiles_quarantined, 0u);
  EXPECT_EQ(stats.records_quarantined, 0u);
}

// --------------------------------------------------------------------------
// Aegis hot-swap between batches: reload() validation, rollback, and epochs.

TEST(WpsServiceReload, SwapsEpochAndAnswersFromNewSnapshot) {
  const auto db1 = random_db(21, 2000);
  const auto db2 = random_db(22, 2500);
  Service service = open_snapshot_of(db1, "mm_wps_reload_a.wps");
  EXPECT_EQ(service.epoch(), 1u);

  const fs::path path2 = temp_path("mm_wps_reload_b.wps");
  SnapshotBuildOptions build;
  build.fsync = false;
  ASSERT_TRUE(write_snapshot(db2, geo::Geodetic{47.6, -122.3, 0.0}, path2, build).ok());

  auto swapped = service.reload(path2);
  ASSERT_TRUE(swapped.ok()) << swapped.error();
  EXPECT_EQ(swapped.value(), 2u);
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.size(), db2.size());
  EXPECT_EQ(service.stats().reloads, 1u);
  EXPECT_EQ(service.stats().reloads_rejected, 0u);
  for (const marauder::KnownAp* ap : db2.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    ASSERT_TRUE(got.has_value());
    expect_same_ap(*got, *ap);
  }
}

TEST(WpsServiceReload, DamagedCandidateRollsBack) {
  const auto db = random_db(23, 2000);
  Service service = open_snapshot_of(db, "mm_wps_reload_live.wps");

  const fs::path damaged = temp_path("mm_wps_reload_damaged.wps");
  SnapshotBuildOptions build;
  build.fsync = false;
  ASSERT_TRUE(write_snapshot(db, geo::Geodetic{47.6, -122.3, 0.0}, damaged, build).ok());

  // Flip bytes through the middle of the file — record payload territory, so
  // some tile's CRC no longer matches.
  {
    std::fstream f(damaged, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(f.tellg());
    for (std::uint64_t off = size / 3; off < size / 3 + 64; off += 8) {
      f.seekg(static_cast<std::streamoff>(off));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5a);
      f.seekp(static_cast<std::streamoff>(off));
      f.write(&byte, 1);
    }
  }

  auto swapped = service.reload(damaged);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.stats().reloads, 0u);
  EXPECT_GE(service.stats().reloads_rejected, 1u);
  // The incumbent keeps serving, still bit-identical to its oracle.
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    ASSERT_TRUE(got.has_value());
    expect_same_ap(*got, *ap);
  }
}

// Hot-swap between batches, the way mmctl wps-serve reloads: each round runs
// its query threads to completion and joins them, then reloads the other
// snapshot. Every answer in a round must come from that round's snapshot
// (TSan covers this target in CI: the joins order each reload after the
// queries before it and before the queries after it).
TEST(WpsServiceReload, ReloadBetweenQueryRoundsAnswersFromOneSnapshot) {
  const auto db1 = random_db(24, 1500);
  marauder::ApDatabase db2;  // same BSSIDs, every position shifted
  for (const marauder::KnownAp* ap : db1.sorted_records()) {
    marauder::KnownAp moved = *ap;
    moved.position = {ap->position.x + 1000.0, ap->position.y - 1000.0};
    db2.add(std::move(moved));
  }
  Service service = open_snapshot_of(db1, "mm_wps_epoch_a.wps");
  const fs::path path_a = testing_support::unique_temp_path("mm_wps_epoch_a.wps");
  const fs::path path_b = temp_path("mm_wps_epoch_b.wps");
  SnapshotBuildOptions build;
  build.fsync = false;
  ASSERT_TRUE(write_snapshot(db2, geo::Geodetic{47.6, -122.3, 0.0}, path_b, build).ok());

  const auto records = db1.sorted_records();
  constexpr int kRounds = 24;
  constexpr int kThreads = 4;
  for (int round = 0; round < kRounds; ++round) {
    const marauder::ApDatabase& oracle = (round % 2 == 0) ? db1 : db2;
    ASSERT_EQ(service.epoch(), 1u + static_cast<std::uint64_t>(round));
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        util::Rng rng(3000 + 100 * static_cast<std::uint64_t>(round) +
                      static_cast<std::uint64_t>(t));
        for (int i = 0; i < 30; ++i) {
          const auto idx = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(records.size()) - 1));
          const marauder::KnownAp* want = oracle.find(records[idx]->bssid);
          const auto got = service.lookup(want->bssid);
          if (!got || !bits_equal(got->position.x, want->position.x) ||
              !bits_equal(got->position.y, want->position.y)) {
            ++failures[t];
          }
          const geo::Vec2 c{rng.uniform(-4000.0, 4000.0), rng.uniform(-4000.0, 4000.0)};
          const auto nearest = service.nearest_k(c, 4);
          const auto expect = oracle.nearest_aps(c, 4);
          if (nearest.size() != expect.size()) {
            ++failures[t];
            continue;
          }
          for (std::size_t j = 0; j < nearest.size(); ++j) {
            if (nearest[j].bssid != expect[j]->bssid ||
                !bits_equal(nearest[j].position.x, expect[j]->position.x) ||
                !bits_equal(nearest[j].position.y, expect[j]->position.y)) {
              ++failures[t];
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << "round " << round << " thread " << t;
    }
    const auto swapped = service.reload((round % 2 == 0) ? path_b : path_a);
    ASSERT_TRUE(swapped.ok()) << swapped.error();
    EXPECT_EQ(swapped.value(), 2u + static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(service.stats().reloads, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(service.stats().reloads_rejected, 0u);
}

TEST(WpsService, PrewarmVerifiesEveryTile) {
  const auto db = random_db(25, 2000);
  const Service service = open_snapshot_of(db, "mm_wps_prewarm.wps");
  const std::uint64_t usable = service.prewarm(4);
  EXPECT_EQ(usable, service.stats().tiles_total);
  EXPECT_EQ(service.stats().tiles_quarantined, 0u);
  // Prewarmed answers are the same answers.
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    const auto got = service.lookup(ap->bssid);
    ASSERT_TRUE(got.has_value());
    expect_same_ap(*got, *ap);
  }
}

// A warm tile's index is ids and cell offsets over the mapped records. On a
// uniform city of about 46 APs per 512 m tile (perfbench's wps_city density)
// the built indexes hold at most 16 B per record, their objects included; a
// copy of each position would take 16 B on its own. Lookups build none.
TEST(WpsService, PrewarmedIndexesHoldAtMostSixteenBytesPerRecord) {
  util::Rng rng(30);
  marauder::ApDatabase db;
  const double half = 10.5 * 512.0;  // 21 x 21 tiles
  for (std::uint64_t i = 0; i < 20000; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x02c000000000ULL + i);
    ap.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    db.add(std::move(ap));
  }
  const Service service = open_snapshot_of(db, "mm_wps_index_bytes.wps");
  for (const marauder::KnownAp* ap : db.sorted_records()) {
    ASSERT_TRUE(service.lookup(ap->bssid).has_value());
  }
  EXPECT_EQ(service.stats().index_bytes, 0u);
  EXPECT_EQ(service.prewarm(2), service.stats().tiles_total);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_LE(stats.index_bytes, 16 * stats.records_total)
      << static_cast<double>(stats.index_bytes) / static_cast<double>(stats.records_total)
      << " B per record";
  // A second prewarm builds nothing new.
  (void)service.prewarm(2);
  EXPECT_EQ(service.stats().index_bytes, stats.index_bytes);
}

TEST(WpsSurveil, WorldAndReplayAreDeterministic) {
  SurveilOptions options;
  options.seed = 42;
  options.fixed_ap_count = 1500;
  options.device_count = 24;
  options.duration_s = 6.0 * 3600.0;
  options.snapshot_refresh_s = 3600.0;
  options.query_interval_s = 900.0;
  options.speed_mps = 8.0;  // vehicles: guarantees cross-tile movement

  const auto db1 = build_world(options);
  const auto db2 = build_world(options);
  ASSERT_EQ(db1.size(), db2.size());
  EXPECT_EQ(db1.size(), options.fixed_ap_count + options.device_count);

  const fs::path dir1 = temp_path("mm_wps_surveil1");
  const fs::path dir2 = temp_path("mm_wps_surveil2");
  auto r1 = run_surveillance(dir1, options);
  auto r2 = run_surveillance(dir2, options);
  ASSERT_TRUE(r1.ok()) << r1.error();
  ASSERT_TRUE(r2.ok()) << r2.error();
  const SurveilReport& a = r1.value();
  const SurveilReport& b = r2.value();

  EXPECT_EQ(a.epochs, 6u);
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.lookup_hits, b.lookup_hits);
  EXPECT_EQ(a.infrastructure_seen, b.infrastructure_seen);
  EXPECT_EQ(a.devices_tracked, b.devices_tracked);
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  for (std::size_t i = 0; i < a.tracks.size(); ++i) {
    EXPECT_EQ(a.tracks[i].bssid, b.tracks[i].bssid);
    EXPECT_EQ(a.tracks[i].sightings, b.tracks[i].sightings);
    EXPECT_EQ(a.tracks[i].distinct_tiles, b.tracks[i].distinct_tiles);
    EXPECT_TRUE(bits_equal(a.tracks[i].path_length_m, b.tracks[i].path_length_m));
  }

  // The attack works: every device is sighted, and fast movers cross tiles.
  EXPECT_EQ(a.devices_sighted, options.device_count);
  EXPECT_GT(a.devices_tracked, options.device_count / 2);
  EXPECT_GT(a.infrastructure_seen, 0u);
  fs::remove_all(dir1);
  fs::remove_all(dir2);
}

}  // namespace
}  // namespace mm::wps
