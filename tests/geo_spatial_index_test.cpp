// Property tests pinning Atlas to its oracle: a brute-force scan in
// ascending-id order with the same predicates. Whatever the point cloud (and
// so whatever cell the grid chooses), the query, or the layout the index
// reads its points from, the grid must return byte-for-byte what the scan
// returns — that equality is what every indexed hot path in the system
// leans on.
#include "geo/spatial_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
    if (points[i].distance_to(center) <= radius) out.push_back(static_cast<Id>(i));
  }
  return out;
}

std::vector<Id> brute_nearest(const std::vector<Vec2>& points, Vec2 center,
                              std::size_t k) {
  std::vector<std::pair<double, Id>> ranked;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ranked.emplace_back(points[i].distance_to(center), static_cast<Id>(i));
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Id> out;
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) out.push_back(ranked[i].second);
  return out;
}

/// One point cloud in the three layouts an index reads in place — a Vec2
/// array; 32-byte records with x and y at offsets 8 and 16, a WPS tile's
/// PackedRecord layout; and two parallel double arrays, ApDatabase's slab —
/// with one index built over each. Every layout must return the oracle's
/// ids, so each returns exactly what the Vec2 span does.
class LayoutOracle {
 public:
  struct Record {
    std::uint64_t tag;
    double x;
    double y;
    double radius;
  };
  static_assert(sizeof(Record) == 32);

  explicit LayoutOracle(std::vector<Vec2> points) : points_(std::move(points)) {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      records_.push_back({0x5EC0000u + i, points_[i].x, points_[i].y, -1.0});
      xs_.push_back(points_[i].x);
      ys_.push_back(points_[i].y);
    }
    views_.emplace_back("vec2", PointView(points_));
    views_.emplace_back("stride32",
                        records_.empty() ? PointView()
                                         : PointView(&records_.front().x, &records_.front().y,
                                                     sizeof(Record), records_.size()));
    views_.emplace_back("soa", PointView(xs_.data(), ys_.data(), sizeof(double), xs_.size()));
    for (const auto& [name, view] : views_) indexes_.emplace_back(view);
  }
  LayoutOracle(const LayoutOracle&) = delete;  // the views point into the members
  LayoutOracle& operator=(const LayoutOracle&) = delete;

  [[nodiscard]] const std::vector<Vec2>& points() const { return points_; }
  /// The index over the Vec2 span.
  [[nodiscard]] const SpatialIndex& index() const { return indexes_.front(); }

  void expect_disc(Vec2 center, double radius) const {
    const std::vector<Id> want = brute_disc(points_, center, radius);
    for (std::size_t l = 0; l < views_.size(); ++l) {
      EXPECT_EQ(indexes_[l].query_disc(views_[l].second, center, radius), want)
          << views_[l].first << " layout, center (" << center.x << ", " << center.y
          << "), radius " << radius;
    }
  }

  void expect_nearest(Vec2 center, std::size_t k) const {
    const std::vector<Id> want = brute_nearest(points_, center, k);
    for (std::size_t l = 0; l < views_.size(); ++l) {
      EXPECT_EQ(indexes_[l].nearest_k(views_[l].second, center, k), want)
          << views_[l].first << " layout, center (" << center.x << ", " << center.y
          << "), k " << k;
    }
  }

 private:
  std::vector<Vec2> points_;
  std::vector<Record> records_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::pair<std::string, PointView>> views_;
  std::vector<SpatialIndex> indexes_;
};

/// Disc and nearest_k queries from `centers`, in every layout, against the
/// oracles.
void expect_oracle(const std::vector<Vec2>& points, const std::vector<Vec2>& centers,
                   const std::vector<double>& radii, const std::vector<std::size_t>& ks) {
  const LayoutOracle oracle(points);
  ASSERT_EQ(oracle.index().size(), points.size());
  for (const Vec2 center : centers) {
    for (const double radius : radii) oracle.expect_disc(center, radius);
    for (const std::size_t k : ks) oracle.expect_nearest(center, k);
  }
}

TEST(SpatialIndex, EmptyIndexReturnsEmpty) {
  const std::vector<Vec2> none;
  for (const SpatialIndex& index : {SpatialIndex(), SpatialIndex(none)}) {
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.cell_count(), 0u);
    EXPECT_EQ(index.heap_bytes(), 0u);
    EXPECT_TRUE(index.query_disc(none, {0.0, 0.0}, 1e9).empty());
    EXPECT_TRUE(index.nearest_k(none, {0.0, 0.0}, 5).empty());
  }
}

TEST(SpatialIndex, CoincidentPointsAllReturnedAscending) {
  const Vec2 p{12.5, -3.25};
  const std::vector<Vec2> points(5, p);
  const SpatialIndex index(points);
  EXPECT_EQ(index.cell_count(), 1u);
  const std::vector<Id> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(index.query_disc(points, p, 0.0), expect);
  EXPECT_EQ(index.nearest_k(points, p, 5), expect);
  EXPECT_EQ(index.nearest_k(points, {100.0, 100.0}, 3), (std::vector<Id>{0, 1, 2}));
}

TEST(SpatialIndex, ZeroRadiusHitsExactPointOnly) {
  const std::vector<Vec2> points{{0.0, 0.0}, {0.0, 1e-12}};
  const SpatialIndex index(points);
  EXPECT_EQ(index.query_disc(points, {0.0, 0.0}, 0.0), (std::vector<Id>{0}));
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
    const LayoutOracle oracle(points);
    const Vec2 center = transpose ? Vec2{0.0, 1.0} : Vec2{1.0, 0.0};
    oracle.expect_disc(center, 1.0);
    EXPECT_EQ(oracle.index().query_disc(points, center, 1.0), expect)
        << "transpose " << transpose;
  }
}

TEST(SpatialIndex, NegativeAndNanRadiusEmpty) {
  const std::vector<Vec2> points{{0.0, 0.0}};
  const SpatialIndex index(points);
  EXPECT_TRUE(index.query_disc(points, {0.0, 0.0}, -1.0).empty());
  EXPECT_TRUE(
      index.query_disc(points, {0.0, 0.0}, std::numeric_limits<double>::quiet_NaN()).empty());
}

// Every layout, with coincident points, discs whose boundary passes exactly
// through a point, and (rounds 30-39) the whole cloud translated to 1e18,
// where neighbouring doubles lie 128 m apart.
TEST(SpatialIndex, RandomizedAgainstBruteForce) {
  util::Rng rng(0xA71A5);
  for (int round = 0; round < 40; ++round) {
    const double offset = round < 30 ? 0.0 : 1e18;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const double extent = rng.uniform(5.0, 2000.0);
    const auto draw = [&] {
      return Vec2{offset + rng.uniform(-extent, extent), offset + rng.uniform(-extent, extent)};
    };
    std::vector<Vec2> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Vec2 p = draw();
      if (!points.empty() && rng.bernoulli(0.1)) p = points.back();  // coincident
      points.push_back(p);
    }
    const LayoutOracle oracle(points);
    EXPECT_LE(oracle.index().cell_count(), 2 * n + 2) << "round " << round;
    for (int q = 0; q < 20; ++q) {
      SCOPED_TRACE(testing::Message() << "round " << round << " query " << q);
      const Vec2 center = draw();
      oracle.expect_disc(center, rng.uniform(0.0, extent));
      oracle.expect_nearest(center, static_cast<std::size_t>(rng.uniform_int(0, 12)));
      if (n > 0) {
        const Vec2 on = points[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
        oracle.expect_disc(center, on.distance_to(center));  // `on` at exactly the radius
      }
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
    const LayoutOracle oracle(points);
    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                n / 2, n - 1, n, n + 10}) {
      // From inside a cluster, between clusters, and far outside everything.
      const Vec2 inside = points[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
      const Vec2 between = (centers[0] + centers[clusters - 1]) * 0.5;
      const Vec2 far{rng.uniform(1.0e8, 1.0e9), rng.uniform(-1.0e9, -1.0e8)};
      for (const Vec2& center : {inside, between, far}) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        oracle.expect_nearest(center, k);
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
  const LayoutOracle oracle(points);
  for (std::size_t k = 1; k <= points.size(); ++k) oracle.expect_nearest({0.0, 0.0}, k);
}

TEST(SpatialIndex, ExtremeCoordinatesDoNotOverflow) {
  const double big = 1e18;
  const std::vector<Vec2> points{{big, big}, {-big, -big}, {0.0, 0.0}};
  const SpatialIndex index(points);
  EXPECT_EQ(index.query_disc(points, {big, big}, 1.0), (std::vector<Id>{0}));
  EXPECT_EQ(index.query_disc(points, {0.0, 0.0}, 4e18), (std::vector<Id>{0, 1, 2}));
  EXPECT_EQ(index.nearest_k(points, {0.0, 0.0}, 1), (std::vector<Id>{2}));
  EXPECT_EQ(index.nearest_k(points, {-3e18, -2e18}, 1), (std::vector<Id>{1}));

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
  EXPECT_EQ(index.query_disc(points, {0.0, 0.0}, 20.0), (std::vector<Id>{0, 3}));
  EXPECT_EQ(index.query_disc(points, {0.0, 0.0}, kInf), (std::vector<Id>{0, 1, 2, 3}));
  EXPECT_EQ(index.nearest_k(points, {9.0, 9.0}, 2), (std::vector<Id>{3, 0}));
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

// The index keeps no pointer to its points, so a query brings them again;
// points of another count cannot be the ones it was built from.
TEST(SpatialIndex, QueryWithOtherPointCountIsRefused) {
  const std::vector<Vec2> points{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}};
  const std::vector<Vec2> fewer(points.begin(), points.end() - 1);
  const SpatialIndex index(points);
  std::vector<Id> out{7};
  EXPECT_THROW((void)index.query_disc(fewer, {0.0, 0.0}, 5.0), std::invalid_argument);
  EXPECT_THROW(index.query_disc(PointView(), {0.0, 0.0}, 5.0, out), std::invalid_argument);
  EXPECT_THROW((void)index.nearest_k(fewer, {0.0, 0.0}, 1), std::invalid_argument);
  EXPECT_THROW((void)SpatialIndex().nearest_k(points, {0.0, 0.0}, 1), std::invalid_argument);
  EXPECT_THROW((void)SpatialIndex().query_disc(points, {0.0, 0.0}, 1.0), std::invalid_argument);
  // A refused query leaves nothing behind, and the right count answers.
  EXPECT_EQ(out, (std::vector<Id>{7}));
  index.query_disc(points, {0.0, 0.0}, 1.5, out);
  EXPECT_EQ(out, (std::vector<Id>{0, 1}));
}

// The index holds a 4-byte id per point and a 4-byte offset per cell (plus
// one), and nothing else: no coordinate is copied.
TEST(SpatialIndex, HeapBytesAreIdsAndCellOffsets) {
  util::Rng rng(0xB17E5);
  for (const std::size_t n : {std::size_t{1}, std::size_t{46}, std::size_t{1000}}) {
    std::vector<Vec2> points;
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({rng.uniform(0.0, 512.0), rng.uniform(0.0, 512.0)});
    }
    const SpatialIndex index(points);
    EXPECT_EQ(index.heap_bytes(), sizeof(std::uint32_t) * (n + index.cell_count() + 1))
        << "n " << n;
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
        if (index.query_disc(points, center, radius) != brute_disc(points, center, radius)) {
          mismatches.fetch_add(1);
        }
        if (index.nearest_k(points, center, 5) != brute_nearest(points, center, 5)) {
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
