#include "geo/disc_intersection.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "marauder/mloc.h"
#include "util/rng.h"

namespace mm::geo {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(DiscIntersection, EmptyInputThrows) {
  std::vector<Circle> none;
  EXPECT_THROW((void)DiscIntersection::compute(none), std::invalid_argument);
}

TEST(DiscIntersection, NonPositiveRadiusThrows) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 0.0}};
  EXPECT_THROW((void)DiscIntersection::compute(discs), std::invalid_argument);
}

TEST(DiscIntersection, SingleDiscIsFullDisc) {
  const std::vector<Circle> discs{{{2.0, -1.0}, 3.0}};
  const auto region = DiscIntersection::compute(discs);
  EXPECT_FALSE(region.empty());
  EXPECT_NEAR(region.area(), kPi * 9.0, 1e-6);
  EXPECT_NEAR(region.centroid().x, 2.0, 1e-6);
  EXPECT_NEAR(region.centroid().y, -1.0, 1e-6);
}

TEST(DiscIntersection, DisjointPairIsEmpty) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 1.0}, {{10.0, 0.0}, 1.0}};
  const auto region = DiscIntersection::compute(discs);
  EXPECT_TRUE(region.empty());
  EXPECT_DOUBLE_EQ(region.area(), 0.0);
}

TEST(DiscIntersection, TwoCircleLensMatchesClosedForm) {
  const Circle a{{0.0, 0.0}, 1.0};
  const Circle b{{1.0, 0.0}, 1.0};
  const std::vector<Circle> discs{a, b};
  const auto region = DiscIntersection::compute(discs);
  EXPECT_FALSE(region.empty());
  EXPECT_NEAR(region.area(), lens_area(a, b), 1e-9);
  // Symmetric lens: centroid at the midpoint.
  EXPECT_NEAR(region.centroid().x, 0.5, 1e-9);
  EXPECT_NEAR(region.centroid().y, 0.0, 1e-9);
}

TEST(DiscIntersection, NestedDiscsReduceToInner) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 5.0}, {{0.3, 0.2}, 1.0}, {{-0.1, 0.0}, 4.0}};
  const auto region = DiscIntersection::compute(discs);
  EXPECT_FALSE(region.empty());
  EXPECT_NEAR(region.area(), kPi, 1e-6);
  EXPECT_NEAR(region.centroid().x, 0.3, 1e-6);
  EXPECT_NEAR(region.centroid().y, 0.2, 1e-6);
}

TEST(DiscIntersection, DuplicateDiscsNotDoubleCounted) {
  const Circle c{{1.0, 1.0}, 2.0};
  const std::vector<Circle> discs{c, c, c};
  const auto region = DiscIntersection::compute(discs);
  EXPECT_NEAR(region.area(), c.area(), 1e-6);
  EXPECT_NEAR(region.centroid().x, 1.0, 1e-6);
}

TEST(DiscIntersection, PairwiseOverlapButEmptyCommon) {
  // Three discs arranged so each pair overlaps but no point is in all three.
  const double r = 1.0;
  const double d = 1.9;  // pairwise distance < 2r, but > r*sqrt(3)
  const std::vector<Circle> discs{
      {{0.0, 0.0}, r},
      {{d, 0.0}, r},
      {{d / 2.0, d * std::sqrt(3.0) / 2.0}, r},
  };
  const auto region = DiscIntersection::compute(discs);
  EXPECT_TRUE(region.empty());
}

TEST(DiscIntersection, ThreeSymmetricDiscsCentroidAtCenter) {
  // Three unit discs centered on an equilateral triangle around the origin.
  std::vector<Circle> discs;
  for (int i = 0; i < 3; ++i) {
    const double theta = 2.0 * kPi * i / 3.0;
    discs.push_back({Vec2::from_polar(0.5, theta), 1.0});
  }
  const auto region = DiscIntersection::compute(discs);
  EXPECT_FALSE(region.empty());
  EXPECT_NEAR(region.centroid().x, 0.0, 1e-9);
  EXPECT_NEAR(region.centroid().y, 0.0, 1e-9);
  EXPECT_GT(region.area(), 0.0);
  EXPECT_LT(region.area(), kPi);
}

TEST(DiscIntersection, ContainsAgreesWithDefiningDiscs) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 2.0}, {{1.0, 0.0}, 2.0}};
  const auto region = DiscIntersection::compute(discs);
  EXPECT_TRUE(region.contains({0.5, 0.0}));
  EXPECT_FALSE(region.contains({-1.5, 0.0}));  // in disc 1 only
  EXPECT_FALSE(region.contains({5.0, 5.0}));
}

TEST(DiscIntersection, VerticesLieOnTwoCirclesAndInAllDiscs) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 1.5}, {{1.0, 0.3}, 1.2}, {{0.4, -0.8}, 1.4}};
  const auto region = DiscIntersection::compute(discs);
  ASSERT_FALSE(region.empty());
  const auto verts = region.vertices();
  EXPECT_GE(verts.size(), 3u);
  for (const Vec2& v : verts) {
    int on_boundary = 0;
    for (const Circle& c : discs) {
      EXPECT_TRUE(c.contains(v, 1e-6));
      if (std::abs(c.center.distance_to(v) - c.radius) < 1e-6) ++on_boundary;
    }
    EXPECT_GE(on_boundary, 2);
  }
}

TEST(DiscIntersection, CentroidInsideRegion) {
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Circle> discs;
    const int k = static_cast<int>(rng.uniform_int(2, 8));
    for (int i = 0; i < k; ++i) {
      // Centers within unit distance of origin, radius 1: origin always inside.
      discs.push_back({Vec2::from_polar(rng.uniform() * 0.999, rng.angle()), 1.0});
    }
    const auto region = DiscIntersection::compute(discs);
    ASSERT_FALSE(region.empty());
    EXPECT_TRUE(region.contains(region.centroid(), 1e-6))
        << "trial " << trial << " centroid escaped the region";
  }
}

TEST(DiscIntersection, AreaDecreasesAsDiscsAdded) {
  util::Rng rng(7);
  std::vector<Circle> discs{{{0.0, 0.0}, 1.0}};
  double prev_area = DiscIntersection::compute(discs).area();
  for (int i = 0; i < 10; ++i) {
    discs.push_back({Vec2::from_polar(rng.uniform() * 0.9, rng.angle()), 1.0});
    const double area = DiscIntersection::compute(discs).area();
    EXPECT_LE(area, prev_area + 1e-9);
    prev_area = area;
  }
}

// gtest names each case by the struct's raw bytes, so the struct must have no
// padding: a padding hole would put uninitialised stack bytes into the name.
struct AreaCase {
  std::int64_t k;
  std::uint64_t seed;
};
static_assert(sizeof(AreaCase) == 2 * sizeof(std::uint64_t));

class MonteCarloAreaTest : public ::testing::TestWithParam<AreaCase> {};

TEST_P(MonteCarloAreaTest, ClosedFormMatchesMonteCarlo) {
  const auto [k, seed] = GetParam();
  util::Rng rng(seed);
  std::vector<Circle> discs;
  for (int i = 0; i < k; ++i) {
    discs.push_back({Vec2::from_polar(rng.uniform() * 0.95, rng.angle()),
                     rng.uniform(0.8, 1.3)});
  }
  const auto region = DiscIntersection::compute(discs);
  ASSERT_FALSE(region.empty());
  const double mc = DiscIntersection::monte_carlo_area(discs, 400000, seed ^ 0xabcdef);
  // Monte-Carlo with 400k samples: ~0.5% relative tolerance plus small absolute slack.
  EXPECT_NEAR(region.area(), mc, 0.01 * region.area() + 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonteCarloAreaTest,
                         ::testing::Values(AreaCase{2, 101}, AreaCase{2, 102},
                                           AreaCase{3, 201}, AreaCase{3, 202},
                                           AreaCase{4, 301}, AreaCase{5, 401},
                                           AreaCase{6, 501}, AreaCase{8, 601},
                                           AreaCase{10, 701}, AreaCase{12, 801}));

class TrueLocationCoverageTest : public ::testing::TestWithParam<int> {};

// Paper invariant: when AP radii are exact, the intersected area always
// covers the mobile's real location (Section III-C.1).
TEST_P(TrueLocationCoverageTest, RegionAlwaysCoversMobile) {
  const int k = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(k) * 7919);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 mobile{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
    std::vector<Circle> discs;
    for (int i = 0; i < k; ++i) {
      // APs uniform in the disc of radius r around the mobile (communicable).
      const double r = 1.0;
      const Vec2 ap = mobile + Vec2::from_polar(r * std::sqrt(rng.uniform()), rng.angle());
      discs.push_back({ap, r});
    }
    const auto region = DiscIntersection::compute(discs);
    ASSERT_FALSE(region.empty());
    EXPECT_TRUE(region.contains(mobile, 1e-7));
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, TrueLocationCoverageTest, ::testing::Range(1, 15));

TEST(DiscIntersection, TangentPairHasZeroArea) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 1.0}, {{2.0, 0.0}, 1.0}};
  const auto region = DiscIntersection::compute(discs);
  // Tangency: region is a single point; either empty or zero-area is correct.
  EXPECT_LT(region.area(), 1e-6);
}

TEST(DiscIntersection, MonteCarloAreaZeroForDisjoint) {
  const std::vector<Circle> discs{{{0.0, 0.0}, 1.0}, {{10.0, 0.0}, 1.0}};
  EXPECT_DOUBLE_EQ(DiscIntersection::monte_carlo_area(discs, 10000, 1), 0.0);
}

/// Scalar reference for the Slipstream prefilter kernel: the exact
/// squared-distance predicate, pair by pair, no SoA, no branch-free tricks.
bool oracle_any_pair_disjoint(const std::vector<Circle>& discs, double eps) {
  for (std::size_t i = 0; i < discs.size(); ++i) {
    for (std::size_t j = i + 1; j < discs.size(); ++j) {
      const double reach = discs[i].radius + discs[j].radius + eps;
      if (reach < 0.0) return true;
      const double dx = discs[j].center.x - discs[i].center.x;
      const double dy = discs[j].center.y - discs[i].center.y;
      if (dx * dx + dy * dy > reach * reach) return true;
    }
  }
  return false;
}

TEST(SlipstreamPrefilter, KernelMatchesScalarOracleRandomized) {
  // Randomized decision-equality sweep: dense clusters (rarely disjoint),
  // sprawling fields (usually disjoint), and near-tangent pairs built to sit
  // right at the reach boundary. Each case runs both the SoA kernel and the
  // scalar oracle; any divergence is a correctness bug in the
  // vector-friendly rewrite, not a tolerance issue.
  util::Rng rng(0x51195);
  std::size_t disjoint_cases = 0;
  std::size_t overlap_cases = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 2 + rng.next_u64() % 12;
    const double spread = trial % 2 == 0 ? 3.0 : 40.0;  // dense vs sprawling
    std::vector<Circle> discs;
    discs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      discs.push_back({{rng.uniform(-spread, spread), rng.uniform(-spread, spread)},
                       rng.uniform(0.5, 4.0)});
    }
    if (trial % 3 == 0 && n >= 2) {
      // Force a near-tangent pair: place disc 1 exactly reach away from
      // disc 0 along x, so the squared comparison sits on its boundary.
      discs[1].center = {discs[0].center.x + discs[0].radius + discs[1].radius,
                        discs[0].center.y};
    }
    const double eps = trial % 5 == 0 ? -1e-9 : rng.uniform(-1e-6, 1e-6);
    const bool expected = oracle_any_pair_disjoint(discs, eps);
    const bool got = any_pair_disjoint(discs, eps);
    ASSERT_EQ(expected, got) << "trial " << trial << " n=" << n << " eps=" << eps;
    (expected ? disjoint_cases : overlap_cases) += 1;
  }
  // The sweep must actually exercise both decisions.
  EXPECT_GT(disjoint_cases, 100u);
  EXPECT_GT(overlap_cases, 100u);

  // Degenerate negative reach: eps so negative that nothing can touch. The
  // kernel must take the sign-aware branch, not the squared compare.
  const std::vector<Circle> touching{{{0.0, 0.0}, 1.0}, {{0.0, 0.0}, 1.0}};
  EXPECT_TRUE(any_pair_disjoint(touching, -3.0));
  EXPECT_TRUE(oracle_any_pair_disjoint(touching, -3.0));

  // Single disc / empty slab: no pair exists.
  const std::vector<Circle> one{{{1.0, 2.0}, 3.0}};
  EXPECT_FALSE(any_pair_disjoint(one, -1e-9));
}

TEST(DiscIntersection, LargeKStressStaysConsistent) {
  util::Rng rng(31337);
  std::vector<Circle> discs;
  for (int i = 0; i < 40; ++i) {
    discs.push_back({Vec2::from_polar(rng.uniform() * 0.9, rng.angle()), 1.0});
  }
  const auto region = DiscIntersection::compute(discs);
  ASSERT_FALSE(region.empty());
  EXPECT_TRUE(region.contains({0.0, 0.0}, 1e-2) || region.area() > 0.0);
  const double mc = DiscIntersection::monte_carlo_area(discs, 300000, 5);
  EXPECT_NEAR(region.area(), mc, 0.02 * region.area() + 5e-3);
}

// --- Workspace reuse: one region and one M-Loc scratch across many sets ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(Vec2 a, Vec2 b) { return same_bits(a.x, b.x) && same_bits(a.y, b.y); }

bool same_discs(const std::vector<Circle>& a, const std::vector<Circle>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].center, b[i].center) || !same_bits(a[i].radius, b[i].radius)) {
      return false;
    }
  }
  return true;
}

::testing::AssertionResult same_region(const DiscIntersection& got,
                                       const DiscIntersection& want,
                                       const std::vector<Vec2>& got_vertices) {
  if (got.empty() != want.empty()) {
    return ::testing::AssertionFailure() << "empty flags differ";
  }
  if (!same_bits(got.area(), want.area())) {
    return ::testing::AssertionFailure() << "area " << got.area() << " vs " << want.area();
  }
  if (!same_discs(got.discs(), want.discs())) {
    return ::testing::AssertionFailure() << "pruned discs differ";
  }
  if (got.arcs().size() != want.arcs().size()) {
    return ::testing::AssertionFailure()
           << got.arcs().size() << " arcs vs " << want.arcs().size();
  }
  for (std::size_t i = 0; i < got.arcs().size(); ++i) {
    const BoundaryArc& a = got.arcs()[i];
    const BoundaryArc& b = want.arcs()[i];
    if (a.circle_index != b.circle_index || !same_bits(a.theta_begin, b.theta_begin) ||
        !same_bits(a.theta_end, b.theta_end)) {
      return ::testing::AssertionFailure() << "arc " << i << " differs";
    }
  }
  const std::vector<Vec2> want_vertices = want.vertices();
  if (got_vertices.size() != want_vertices.size()) {
    return ::testing::AssertionFailure()
           << got_vertices.size() << " vertices vs " << want_vertices.size();
  }
  for (std::size_t i = 0; i < got_vertices.size(); ++i) {
    if (!same_bits(got_vertices[i], want_vertices[i])) {
      return ::testing::AssertionFailure() << "vertex " << i << " differs";
    }
  }
  if (!want.empty() && !same_bits(got.centroid(), want.centroid())) {
    return ::testing::AssertionFailure() << "centroid differs";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_result(const marauder::LocalizationResult& got,
                                       const marauder::LocalizationResult& want) {
  if (got.ok != want.ok || got.used_fallback != want.used_fallback ||
      got.discs_rejected != want.discs_rejected || got.num_aps != want.num_aps ||
      got.method != want.method) {
    return ::testing::AssertionFailure()
           << "flags differ: ok " << got.ok << "/" << want.ok << ", fallback "
           << got.used_fallback << "/" << want.used_fallback << ", rejected "
           << got.discs_rejected << "/" << want.discs_rejected;
  }
  if (!same_bits(got.estimate, want.estimate)) {
    return ::testing::AssertionFailure() << "estimate differs";
  }
  if (!same_discs(got.discs, want.discs)) {
    return ::testing::AssertionFailure() << "result discs differ";
  }
  return ::testing::AssertionSuccess();
}

enum class SetShape {
  kOverlapping,   // scattered, mostly a non-empty region with arcs
  kNested,        // every disc inside the next: the inner disc, one full-circle arc
  kDuplicate,     // a few discs, each repeated
  kTangent,       // an external tangency: a zero-area (or empty) region
  kDisjoint,      // overlapping discs plus one far away
  kEmptyCommon,   // pairwise overlapping, no common point
  kAcrossTheCut,  // arcs of the first circle straddle angle 0
  kShapeCount,
};

std::vector<Circle> make_set(SetShape shape, std::size_t n, util::Rng& rng) {
  std::vector<Circle> discs;
  const auto scattered = [&](double spread, double r_lo, double r_hi) {
    return Circle{Vec2::from_polar(spread * std::sqrt(rng.uniform()), rng.angle()),
                  rng.uniform(r_lo, r_hi)};
  };
  switch (shape) {
    case SetShape::kOverlapping:
      for (std::size_t i = 0; i < n; ++i) discs.push_back(scattered(90.0, 80.0, 120.0));
      break;
    case SetShape::kNested:
      for (std::size_t i = 0; i < n; ++i) {
        const double radius = 10.0 + 3.0 * static_cast<double>(i);
        discs.push_back(scattered(0.5, radius, radius));
      }
      break;
    case SetShape::kDuplicate:
      for (std::size_t i = 0; i < n; ++i) {
        discs.push_back(i < 3 ? scattered(60.0, 80.0, 120.0) : discs[rng.next_u64() % 3]);
      }
      break;
    case SetShape::kTangent: {
      // External tangency (disjoint within eps: empty), a pair 1e-8 closer
      // (a sliver region), or internal tangency (the outer disc is pruned).
      const double r = rng.uniform(20.0, 60.0);
      const auto kind = rng.next_u64() % 3;
      discs.push_back({{0.0, 0.0}, r});
      if (n > 1) {
        discs.push_back(kind == 2 ? Circle{{r / 2.0, 0.0}, r / 2.0}
                                  : Circle{{2.0 * r - (kind == 1 ? 1e-8 : 0.0), 0.0}, r});
      }
      // Large discs around the tangency point keep it inside every disc.
      for (std::size_t i = 2; i < n; ++i) {
        discs.push_back({{r + rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)},
                         rng.uniform(4.0 * r, 6.0 * r)});
      }
      break;
    }
    case SetShape::kDisjoint:
      for (std::size_t i = 0; i < n; ++i) discs.push_back(scattered(90.0, 80.0, 120.0));
      discs[rng.next_u64() % n] = {{5000.0, rng.uniform(-50.0, 50.0)}, 100.0};
      break;
    case SetShape::kEmptyCommon: {
      // A triangle of discs whose pairwise lenses miss the centre, plus
      // covering discs that the prune pass removes.
      const double r = 50.0;
      const double rho = 1.07 * r;
      const double phase = rng.angle();
      for (std::size_t i = 0; i < n; ++i) {
        if (i < 3) {
          const double at = phase + 2.0 * kPi * static_cast<double>(i) / 3.0;
          discs.push_back({Vec2::from_polar(rho, at), r});
        } else {
          discs.push_back(scattered(10.0, 300.0, 400.0));
        }
      }
      std::swap(discs.front(), discs[rng.next_u64() % n]);
      break;
    }
    case SetShape::kAcrossTheCut:
      discs.push_back({{0.0, 0.0}, 100.0});
      for (std::size_t i = 1; i < n; ++i) {
        discs.push_back({{rng.uniform(60.0, 110.0), rng.uniform(-15.0, 15.0)},
                         rng.uniform(80.0, 120.0)});
      }
      break;
    case SetShape::kShapeCount:
      break;
  }
  return discs;
}

// One DiscIntersection and one MLocScratch run through 2,240 seeded sets of
// 1-64 discs, largest first in every run of 64, so every buffer is reused
// both after larger sets and after smaller ones. Each result must equal, bit
// for bit, what a fresh region and a fresh scratch compute on the same set:
// anything a reused buffer carries over from an earlier set shows here.
TEST(DiscIntersection, ReusedWorkspaceMatchesFreshComputeBitForBit) {
  util::Rng rng(0xd15c);
  DiscIntersection reused;
  std::vector<Vec2> reused_vertices;
  marauder::MLocScratch scratch;
  const marauder::MLocOptions option_sets[] = {
      {},
      {.reject_outliers = true},
      {.exact_region_centroid = true, .reject_outliers = true},
  };
  struct Reached {
    std::size_t empty = 0;
    std::size_t pruned = 0;    ///< fewer discs kept than given
    std::size_t one_left = 0;  ///< pruned down to a single disc
    std::size_t slivers = 0;   ///< non-empty with area below 1e-3
  };
  std::vector<Reached> reached(static_cast<std::size_t>(SetShape::kShapeCount));
  std::size_t wrapped_arcs = 0;
  std::size_t rejections = 0;
  std::size_t fallbacks = 0;
  for (std::size_t k = 0; k < 2240; ++k) {
    const std::size_t n = 64 - k % 64;
    const auto shape = static_cast<SetShape>(k % reached.size());
    const std::vector<Circle> discs = make_set(shape, n, rng);
    SCOPED_TRACE(::testing::Message() << "set " << k << ", shape "
                                      << static_cast<int>(shape) << ", " << n << " discs");

    const DiscIntersection fresh = DiscIntersection::compute(discs);
    reused.recompute(discs);
    reused.vertices_into(reused_vertices);
    ASSERT_TRUE(same_region(reused, fresh, reused_vertices));
    Reached& r = reached[static_cast<std::size_t>(shape)];
    r.empty += fresh.empty() ? 1 : 0;
    r.pruned += !fresh.empty() && fresh.discs().size() < n ? 1 : 0;
    r.one_left += !fresh.empty() && n > 1 && fresh.discs().size() == 1 ? 1 : 0;
    r.slivers += !fresh.empty() && fresh.area() < 1e-3 ? 1 : 0;
    for (const BoundaryArc& arc : fresh.arcs()) {
      wrapped_arcs += arc.theta_begin < 0.0 ? 1 : 0;
    }

    for (const marauder::MLocOptions& options : option_sets) {
      marauder::MLocScratch fresh_scratch;
      const marauder::LocalizationResult want =
          marauder::mloc_locate(discs, options, fresh_scratch);
      ASSERT_TRUE(same_result(marauder::mloc_locate(discs, options, scratch), want));
      ASSERT_TRUE(same_result(marauder::mloc_locate(discs, options), want));
      rejections += want.discs_rejected > 0 ? 1 : 0;
      fallbacks += want.used_fallback ? 1 : 0;
    }
  }
  // The sweep reaches every case it is meant to (each shape gets 320 sets,
  // 315 of them with two or more discs).
  const auto of = [&](SetShape shape) { return reached[static_cast<std::size_t>(shape)]; };
  EXPECT_EQ(of(SetShape::kNested).one_left, 315u);
  EXPECT_GT(of(SetShape::kDuplicate).pruned, 300u);
  EXPECT_GT(of(SetShape::kTangent).empty, 50u);
  EXPECT_GT(of(SetShape::kTangent).slivers, 50u);
  EXPECT_GT(of(SetShape::kTangent).pruned, 50u);
  EXPECT_EQ(of(SetShape::kDisjoint).empty, 315u);
  EXPECT_GT(of(SetShape::kEmptyCommon).empty, 300u);
  EXPECT_GT(wrapped_arcs, 300u);
  EXPECT_GT(rejections, 300u);
  EXPECT_GT(fallbacks, 300u);
}

}  // namespace
}  // namespace mm::geo
