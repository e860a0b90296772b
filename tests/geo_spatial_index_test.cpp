// Property tests pinning Atlas to its oracle: a brute-force scan in
// ascending-id order with the same predicates. Whatever the point cloud (and
// so whatever cell the grid chooses) or the query, the grid must return
// byte-for-byte what the scan returns — that equality is what every indexed
// hot path in the system leans on.
#include "geo/spatial_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mm::geo {
namespace {

using Id = SpatialIndex::Id;

std::vector<Id> brute_disc(const std::vector<Vec2>& points, Vec2 center, double radius) {
  std::vector<Id> out;
  if (!(radius >= 0.0)) return out;  // NaN/negative: empty, like the index
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].distance_to(center) <= radius) out.push_back(i);
  }
  return out;
}

std::vector<Id> brute_nearest(const std::vector<Vec2>& points, Vec2 center,
                              std::size_t k) {
  std::vector<std::pair<double, Id>> ranked;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ranked.emplace_back(points[i].distance_to(center), i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Id> out;
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) out.push_back(ranked[i].second);
  return out;
}

/// Disc and nearest_k queries from `centers` against the oracles.
void expect_oracle(const std::vector<Vec2>& points, const std::vector<Vec2>& centers,
                   const std::vector<double>& radii, const std::vector<std::size_t>& ks) {
  const SpatialIndex index(points);
  ASSERT_EQ(index.size(), points.size());
  for (const Vec2 center : centers) {
    SCOPED_TRACE(testing::Message() << "center (" << center.x << ", " << center.y << ")");
    for (const double radius : radii) {
      EXPECT_EQ(index.query_disc(center, radius), brute_disc(points, center, radius))
          << "radius " << radius;
    }
    for (const std::size_t k : ks) {
      EXPECT_EQ(index.nearest_k(center, k), brute_nearest(points, center, k)) << "k " << k;
    }
  }
}

TEST(SpatialIndex, EmptyIndexReturnsEmpty) {
  for (const SpatialIndex& index : {SpatialIndex(), SpatialIndex(std::vector<Vec2>{})}) {
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.cell_count(), 0u);
    EXPECT_TRUE(index.query_disc({0.0, 0.0}, 1e9).empty());
    EXPECT_TRUE(index.nearest_k({0.0, 0.0}, 5).empty());
  }
}

TEST(SpatialIndex, CoincidentPointsAllReturnedAscending) {
  const Vec2 p{12.5, -3.25};
  const SpatialIndex index(std::vector<Vec2>(5, p));
  EXPECT_EQ(index.cell_count(), 1u);
  const std::vector<Id> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(index.query_disc(p, 0.0), expect);
  EXPECT_EQ(index.nearest_k(p, 5), expect);
  EXPECT_EQ(index.nearest_k({100.0, 100.0}, 3), (std::vector<Id>{0, 1, 2}));
}

TEST(SpatialIndex, ZeroRadiusHitsExactPointOnly) {
  const SpatialIndex index(std::vector<Vec2>{{0.0, 0.0}, {0.0, 1e-12}});
  EXPECT_EQ(index.query_disc({0.0, 0.0}, 0.0), (std::vector<Id>{0}));
}

TEST(SpatialIndex, PointsOnCellBoundaries) {
  // A 7x7 lattice of pitch 10 m: the grid's cell comes out at the pitch, so
  // every point sits exactly on a cell edge, the classic off-by-one-cell
  // bug; the closed-disc predicate must win.
  std::vector<Vec2> points;
  for (int ix = -3; ix <= 3; ++ix) {
    for (int iy = -3; iy <= 3; ++iy) points.push_back({ix * 10.0, iy * 10.0});
  }
  const std::vector<Vec2> centers{{0.0, 0.0}, {10.0, -20.0}, {-30.0, 30.0}, {5.0, 5.0}};
  expect_oracle(points, centers, {0.0, 10.0, 14.142135623730951, 20.0, 35.0},
                {1, 4, 5, 9, 13});
}

TEST(SpatialIndex, DiscBoundaryAcrossCellEdgeMatchesBruteForce) {
  // Eight points over x in [-1, 3], y in [-0.25, 0.25]: the grid picks a
  // 0.5 m cell from -1, so x = 0 is a cell edge. From (1, 0) with radius 1,
  // center.x - radius is exactly that edge, while (-1e-16, 0) lies in the
  // column below it at a distance that rounds to exactly 1; (2, 0) sits on
  // the far side at exactly 1. The transposed cloud does the same on y.
  const std::vector<Vec2> cloud{{-1.0, 0.0},  {3.0, 0.0},   {-1e-16, 0.0}, {2.0, 0.0},
                                {0.5, 0.25}, {0.5, -0.25}, {1.0, 0.1},    {1.5, -0.1}};
  const std::vector<Id> expect{2, 3, 4, 5, 6, 7};
  for (const bool transpose : {false, true}) {
    std::vector<Vec2> points;
    for (const Vec2 p : cloud) points.push_back(transpose ? Vec2{p.y, p.x} : p);
    const SpatialIndex index(points);
    const Vec2 center = transpose ? Vec2{0.0, 1.0} : Vec2{1.0, 0.0};
    EXPECT_EQ(index.query_disc(center, 1.0), brute_disc(points, center, 1.0))
        << "transpose " << transpose;
    EXPECT_EQ(index.query_disc(center, 1.0), expect) << "transpose " << transpose;
  }
}

TEST(SpatialIndex, NegativeAndNanRadiusEmpty) {
  const SpatialIndex index(std::vector<Vec2>{{0.0, 0.0}});
  EXPECT_TRUE(index.query_disc({0.0, 0.0}, -1.0).empty());
  EXPECT_TRUE(index.query_disc({0.0, 0.0}, std::numeric_limits<double>::quiet_NaN()).empty());
}

TEST(SpatialIndex, RandomizedAgainstBruteForce) {
  util::Rng rng(0xA71A5);
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const double extent = rng.uniform(5.0, 2000.0);
    std::vector<Vec2> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Vec2 p{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
      if (!points.empty() && rng.bernoulli(0.1)) p = points.back();  // coincident
      points.push_back(p);
    }
    const SpatialIndex index(points);
    EXPECT_LE(index.cell_count(), 2 * n + 2) << "round " << round;
    for (int q = 0; q < 20; ++q) {
      const Vec2 center{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
      const double radius = rng.uniform(0.0, extent);
      EXPECT_EQ(index.query_disc(center, radius), brute_disc(points, center, radius))
          << "round " << round << " disc query " << q;
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 12));
      EXPECT_EQ(index.nearest_k(center, k), brute_nearest(points, center, k))
          << "round " << round << " nearest query " << q;
    }
  }
}

// Clustered clouds: tight blobs separated by wide empty gulfs, queried with
// large k and from centers far outside the occupied bounding box. The grid's
// one-point-per-cell choice leaves most of its cells empty here; the oracle
// stays the same brute (distance, id) sort.
TEST(SpatialIndex, NearestKClusteredOracle) {
  util::Rng rng(0xC1057E2);
  for (int round = 0; round < 8; ++round) {
    std::vector<Vec2> points;
    const int clusters = static_cast<int>(rng.uniform_int(2, 6));
    std::vector<Vec2> centers;
    for (int c = 0; c < clusters; ++c) {
      centers.push_back({rng.uniform(-50000.0, 50000.0), rng.uniform(-50000.0, 50000.0)});
    }
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(300, 900));
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 c = centers[i % centers.size()];
      points.push_back({c.x + rng.gaussian(0.0, 40.0), c.y + rng.gaussian(0.0, 40.0)});
    }
    const SpatialIndex index(points);
    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                n / 2, n - 1, n, n + 10}) {
      // From inside a cluster, between clusters, and far outside everything.
      const Vec2 inside = points[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
      const Vec2 between = (centers[0] + centers[clusters - 1]) * 0.5;
      const Vec2 far{rng.uniform(1.0e8, 1.0e9), rng.uniform(-1.0e9, -1.0e8)};
      for (const Vec2& center : {inside, between, far}) {
        EXPECT_EQ(index.nearest_k(center, k), brute_nearest(points, center, k))
            << "round " << round << " k " << k;
      }
    }
  }
}

// Equidistant points across cell boundaries: the k-th distance ties exactly,
// and the tie must resolve by ascending id whether the contenders share a
// cell, a frontier ring, or neither.
TEST(SpatialIndex, NearestKExactTiesResolveById) {
  std::vector<Vec2> points;
  const double r = 100.0;
  for (Id id = 0; id < 8; ++id) {
    // Points spread over an axis-aligned square of "radius" 100 around the
    // origin — edge midpoints, corners, and the center — in different cells,
    // with distances tied in groups (three at 100, four at 100*sqrt(2)).
    const double sx = (id % 3 == 0) ? 0.0 : (id % 3 == 1 ? r : -r);
    const double sy = (id < 3) ? r : (id < 6 ? -r : 0.0);
    points.push_back({sx, sy});
  }
  const SpatialIndex index(points);
  for (std::size_t k = 1; k <= points.size(); ++k) {
    EXPECT_EQ(index.nearest_k({0.0, 0.0}, k), brute_nearest(points, {0.0, 0.0}, k))
        << "k " << k;
  }
}

TEST(SpatialIndex, ExtremeCoordinatesDoNotOverflow) {
  const double big = 1e18;
  const std::vector<Vec2> points{{big, big}, {-big, -big}, {0.0, 0.0}};
  const SpatialIndex index(points);
  EXPECT_EQ(index.query_disc({big, big}, 1.0), (std::vector<Id>{0}));
  EXPECT_EQ(index.query_disc({0.0, 0.0}, 4e18), (std::vector<Id>{0, 1, 2}));
  EXPECT_EQ(index.nearest_k({0.0, 0.0}, 1), (std::vector<Id>{2}));
  EXPECT_EQ(index.nearest_k({-3e18, -2e18}, 1), (std::vector<Id>{1}));

  // A tight cloud at 1e18 next to one far point: the cloud's points are a
  // few ulps apart, and the cell the grid picks is astronomically larger
  // than their spacing.
  std::vector<Vec2> spread{{-big, big}};
  for (int i = 0; i < 40; ++i) {
    spread.push_back({big + 128.0 * (i % 7), big - 256.0 * (i / 7)});
  }
  expect_oracle(spread, {{big, big}, {big + 500.0, big - 700.0}, {-big, big}, {0.0, 0.0}},
                {0.0, 128.0, 1000.0, 3e18}, {1, 5, 20, 41});

  // Boxes wider than the largest double along one axis or both: hi - lo
  // overflows, and so do some of the distances.
  constexpr double kHuge = 1.7e308;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Vec2 far : {Vec2{kHuge, 0.0}, Vec2{0.0, kHuge}, Vec2{kHuge, kHuge}}) {
    const std::vector<Vec2> wide{far * -1.0, far, {0.0, 0.0}, {5.0, 1.0}, {3.0, -2.0}};
    expect_oracle(wide, {{0.0, 0.0}, far, far * -1.0, {4.0, 4.0}, far * 0.5},
                  {0.0, 1.0, 10.0, kHuge, kInf}, {1, 2, 3, 5});
  }
}

TEST(SpatialIndex, NonFiniteCoordinatesClampIntoEdgeCells) {
  // Infinite coordinates sit outside the finite bounding box the grid is
  // laid over; they land in its edge cells and are found only by the
  // queries that reach them, as in a scan.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Vec2> points{{0.0, 0.0}, {kInf, 5.0}, {3.0, -kInf}, {10.0, 10.0}};
  const SpatialIndex index(points);
  EXPECT_EQ(index.query_disc({0.0, 0.0}, 20.0), (std::vector<Id>{0, 3}));
  EXPECT_EQ(index.query_disc({0.0, 0.0}, kInf), (std::vector<Id>{0, 1, 2, 3}));
  EXPECT_EQ(index.nearest_k({9.0, 9.0}, 2), (std::vector<Id>{3, 0}));
}

// Degenerate clouds: the cell is chosen from the bounding box, and these
// are the boxes with no area. The grid must stay small and exact.
TEST(SpatialIndex, SinglePointOracle) {
  const std::vector<Vec2> points{{-71.25, 42.5}};
  const SpatialIndex index(points);
  EXPECT_EQ(index.cell_count(), 1u);
  expect_oracle(points, {{-71.25, 42.5}, {0.0, 0.0}, {-71.25, 43.5}, {1e9, -1e9}},
                {0.0, 1.0, 1e3, 1e10}, {0, 1, 2});
}

TEST(SpatialIndex, ThousandCoincidentPointsOracle) {
  const std::vector<Vec2> points(1000, Vec2{512.0, -256.0});
  const SpatialIndex index(points);
  EXPECT_EQ(index.cell_count(), 1u);
  expect_oracle(points, {{512.0, -256.0}, {500.0, -250.0}, {-1e7, 3e7}},
                {0.0, 1.0, 13.0, 1e9}, {1, 10, 999, 1000, 1500});
}

TEST(SpatialIndex, TenThousandCollinearPointsOracle) {
  // 10,000 points on a slanted line spanning 1e6 m (no box area when the
  // line is axis-parallel, very little when slanted): the grid must hold
  // about n cells, not n^2, and answer from on and off the line.
  util::Rng rng(0x11AE);
  for (const Vec2 dir : {Vec2{1.0, 0.0}, Vec2{0.0, 1.0}, Vec2{0.6, 0.8}}) {
    std::vector<Vec2> points;
    for (int i = 0; i < 10000; ++i) {
      const double t = rng.uniform(-5e5, 5e5);
      points.push_back(dir * t + Vec2{100.0, -200.0});
    }
    const SpatialIndex index(points);
    EXPECT_LE(index.cell_count(), 2 * points.size() + 2);
    std::vector<Vec2> centers;
    for (int q = 0; q < 12; ++q) {
      centers.push_back(points[static_cast<std::size_t>(rng.uniform_int(0, 9999))] +
                        dir.perp() * rng.uniform(-300.0, 300.0));
    }
    centers.push_back(dir * 9e5);   // beyond the line's end
    centers.push_back(dir.perp() * 4e5);  // far to one side
    expect_oracle(points, centers, {0.0, 50.0, 4000.0}, {1, 8, 100});
  }
}

// Queries are pure reads: many threads may hit one index concurrently
// (this is what locate_all's workers do through ApDatabase). Run under TSan
// in CI to make the claim checkable, not just asserted.
TEST(SpatialIndex, ConcurrentReadsAreSafe) {
  util::Rng rng(0xC0C0);
  std::vector<Vec2> points;
  for (std::size_t i = 0; i < 500; ++i) {
    points.push_back({rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)});
  }
  const SpatialIndex index(points);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      util::Rng local(0xBEEF + static_cast<std::uint64_t>(t));
      for (int q = 0; q < 200; ++q) {
        const Vec2 center{local.uniform(-1000.0, 1000.0), local.uniform(-1000.0, 1000.0)};
        const double radius = local.uniform(0.0, 600.0);
        if (index.query_disc(center, radius) != brute_disc(points, center, radius)) {
          mismatches.fetch_add(1);
        }
        if (index.nearest_k(center, 5) != brute_nearest(points, center, 5)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace mm::geo
