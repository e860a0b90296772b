#include "marauder/aprad.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common.h"
#include "lp/pair_lp.h"
#include "marauder/tracker.h"
#include "simplex_oracle.h"
#include "util/rng.h"

namespace mm::marauder {
namespace {

net80211::MacAddress mac(int i) {
  std::array<std::uint8_t, 6> bytes{0x00, 0x1a, 0x2b, 0x00, 0x00,
                                    static_cast<std::uint8_t>(i)};
  return net80211::MacAddress(bytes);
}

const net80211::MacAddress kDevice = *net80211::MacAddress::parse("00:16:6f:00:00:01");

/// A store in which kDevice hears `aps` in one scan: prepare() takes them
/// as one Gamma, and locate() locates the device from them.
capture::ObservationStore store_hearing(const std::set<net80211::MacAddress>& aps) {
  capture::ObservationStore store;
  for (const auto& ap : aps) store.record_contact(ap, kDevice, 1.0, -60.0);
  return store;
}

/// AP-Rad through the Tracker, the path every caller runs: radii from the
/// LP over the store's Gammas, then M-Loc over the device's discs.
LocalizationResult aprad_tracker_locate(ApDatabase db,
                                        const std::set<net80211::MacAddress>& heard,
                                        double max_radius_m) {
  TrackerOptions options;
  options.algorithm = Algorithm::kApRad;
  options.aprad.max_radius_m = max_radius_m;
  Tracker tracker(std::move(db), options);
  const capture::ObservationStore store = store_hearing(heard);
  tracker.prepare(store);
  return tracker.locate(store, kDevice);
}

ApDatabase line_db(const std::vector<double>& xs) {
  ApDatabase db;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    db.add({mac(static_cast<int>(i)), "ap", {xs[i], 0.0}, std::nullopt});
  }
  return db;
}

TEST(ApRad, EmptyGammasYieldNoRadii) {
  const ApDatabase db = line_db({0.0, 100.0});
  const auto radii = aprad_estimate_radii(db, {}, {});
  EXPECT_TRUE(radii.empty());
}

TEST(ApRad, CoObservedPairSatisfiesLowerBound) {
  const ApDatabase db = line_db({0.0, 100.0});
  const std::vector<std::set<net80211::MacAddress>> gammas{{mac(0), mac(1)}};
  ApRadOptions options;
  options.max_radius_m = 150.0;
  const auto radii = aprad_estimate_radii(db, gammas, options);
  ASSERT_EQ(radii.size(), 2u);
  EXPECT_GE(radii.at(mac(0)) + radii.at(mac(1)), 100.0 - 1e-6);
  EXPECT_LE(radii.at(mac(0)), 150.0 + 1e-6);
  EXPECT_LE(radii.at(mac(1)), 150.0 + 1e-6);
}

TEST(ApRad, NeverCoObservedPairRespectsUpperBound) {
  // Three APs; 0-1 co-observed, 1-2 and 0-2 never.
  const ApDatabase db = line_db({0.0, 80.0, 200.0});
  const std::vector<std::set<net80211::MacAddress>> gammas{{mac(0), mac(1)}};
  ApRadOptions options;
  options.max_radius_m = 300.0;
  const auto radii = aprad_estimate_radii(db, gammas, options);
  // Only observed APs get radii (AP 2 never appears in any Gamma).
  ASSERT_EQ(radii.size(), 2u);
  EXPECT_EQ(radii.count(mac(2)), 0u);
  EXPECT_GE(radii.at(mac(0)) + radii.at(mac(1)), 80.0 - 1e-6);
}

TEST(ApRad, LessConstraintLimitsRadiiBetweenObservedAps) {
  // 0-1 co-observed and 1-2 co-observed, but 0-2 never: the LP holds
  // r0 + r2 <= 300 - 1, and each returned radius carries the 10 m bias.
  const ApDatabase db = line_db({0.0, 150.0, 300.0});
  const std::vector<std::set<net80211::MacAddress>> gammas{{mac(0), mac(1)},
                                                           {mac(1), mac(2)}};
  ApRadOptions options;
  options.max_radius_m = 400.0;
  const auto radii = aprad_estimate_radii(db, gammas, options);
  ASSERT_EQ(radii.size(), 3u);
  EXPECT_GE(radii.at(mac(0)) + radii.at(mac(1)), 150.0 - 1e-6);
  EXPECT_GE(radii.at(mac(1)) + radii.at(mac(2)), 150.0 - 1e-6);
  EXPECT_LE(radii.at(mac(0)) + radii.at(mac(2)), 300.0 - 1.0 + 2.0 * 10.0 + 1e-6);
}

TEST(ApRad, MaximizationPrefersOverestimates) {
  // Single co-observed pair, no "<" pressure: both radii driven to the cap.
  const ApDatabase db = line_db({0.0, 50.0});
  const std::vector<std::set<net80211::MacAddress>> gammas{{mac(0), mac(1)}};
  ApRadOptions options;
  options.max_radius_m = 120.0;
  const auto radii = aprad_estimate_radii(db, gammas, options);
  EXPECT_NEAR(radii.at(mac(0)), 120.0, 1e-6);
  EXPECT_NEAR(radii.at(mac(1)), 120.0, 1e-6);
}

TEST(ApRad, ConflictingEvidenceHandledSoftly) {
  // Geometrically contradictory observations: 0-2 co-observed (r0+r2 >= 200)
  // but 0-1 and 1-2 never, with AP 1 in the middle (r0+r1 <= 99, r1+r2 <= 99).
  // Hard "<" would be infeasible together with the cap ordering; the soft
  // solver must still return radii honoring the hard >= constraint.
  const ApDatabase db = line_db({0.0, 100.0, 200.0});
  const std::vector<std::set<net80211::MacAddress>> gammas{{mac(0), mac(2)}};
  // Make APs 0,1,2 all observed so the "<" pairs exist.
  const std::vector<std::set<net80211::MacAddress>> with_one{
      {mac(0), mac(2)}, {mac(1)}};
  ApRadOptions options;
  options.max_radius_m = 250.0;
  const auto radii = aprad_estimate_radii(db, with_one, options);
  ASSERT_EQ(radii.size(), 3u);
  EXPECT_GE(radii.at(mac(0)) + radii.at(mac(2)), 200.0 - 1e-6);
}

TEST(ApRad, LocateProducesEstimateNearTruth) {
  // Simulated ground truth: APs with radius 100 at known spots; mobile at
  // origin sees exactly the APs covering it.
  util::Rng rng(5);
  ApDatabase db;
  const double true_r = 100.0;
  std::set<net80211::MacAddress> target;
  std::vector<geo::Vec2> positions;
  for (int i = 0; i < 8; ++i) {
    const geo::Vec2 p = geo::Vec2::from_polar(true_r * 0.8 * std::sqrt(rng.uniform()),
                                              rng.angle());
    db.add({mac(i), "ap", p, std::nullopt});
    target.insert(mac(i));
    positions.push_back(p);
  }
  // The target's own scan is the co-observation evidence.
  const LocalizationResult r = aprad_tracker_locate(std::move(db), target, 200.0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.method, "AP-Rad");
  EXPECT_LT(r.estimate.norm(), 60.0);  // mobile is at the origin
}

TEST(ApRad, UnknownBssidsIgnored) {
  const ApDatabase db = line_db({0.0, 100.0});
  const auto unknown = mac(99);
  const std::vector<std::set<net80211::MacAddress>> gammas{{mac(0), mac(1), unknown}};
  const auto radii = aprad_estimate_radii(db, gammas, {});
  EXPECT_EQ(radii.count(unknown), 0u);
  EXPECT_EQ(radii.size(), 2u);
}

// Theorem-3 sanity at system level: radii from the LP are overestimates
// often enough that the M-Loc region usually covers the mobile.
TEST(ApRad, RegionUsuallyCoversTruthAcrossTrials) {
  util::Rng rng(77);
  int covered = 0;
  const int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    ApDatabase db;
    std::set<net80211::MacAddress> target;
    const geo::Vec2 mobile{rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)};
    const double true_r = 100.0;
    for (int i = 0; i < 6; ++i) {
      const geo::Vec2 p =
          mobile + geo::Vec2::from_polar(true_r * std::sqrt(rng.uniform()), rng.angle());
      db.add({mac(i), "ap", p, std::nullopt});
      target.insert(mac(i));
    }
    const LocalizationResult r = aprad_tracker_locate(std::move(db), target, 250.0);
    if (r.ok && region_covers(r, mobile)) ++covered;
  }
  EXPECT_GT(covered, kTrials * 3 / 4);
}


// --- The flow solve against the dense simplex oracle ---------------------

// The AP-Rad LP as DESIGN.md §6 states it: "<" rows r_i + r_j <= d - 1 m
// at 50 per metre of violation; co-observation rows r_i + r_j >= d, hard
// when 2 * cap can meet them and otherwise soft at 500; 0 <= r <= cap.
constexpr double kEpsilonM = 1.0;
constexpr std::int64_t kLessPenalty = 50;
constexpr std::int64_t kFarPenalty = 500;
constexpr double kBiasM = 10.0;

lp::PairLp flow_program(const ApRadConstraints& c, double cap) {
  lp::PairLp program{.variables = c.observed.size(),
                     .cap = cap,
                     .at_most_penalty = kLessPenalty,
                     .at_least_penalty = kFarPenalty};
  for (const auto& [pair, d] : c.less_rows) {
    program.at_most.push_back({pair.first, pair.second, d - kEpsilonM});
  }
  for (std::size_t k = 0; k < c.co_pairs.size(); ++k) {
    program.at_least.push_back({c.co_pairs[k].first, c.co_pairs[k].second, c.co_dist[k]});
  }
  return program;
}

/// The same LP through the general simplex, with the co-observation rows
/// added in rounds as the optimum violates them (the solve AP-Rad made
/// before the flow, minus its round limit).
std::vector<double> oracle_radii(const ApRadConstraints& c, double cap) {
  std::vector<char> active(c.co_pairs.size(), 0);
  for (;;) {
    lp::oracle::LinearProgram program(c.observed.size());
    for (std::size_t i = 0; i < c.observed.size(); ++i) {
      program.set_objective(i, 1.0);
      program.add_upper_bound(i, cap);
    }
    for (const auto& [pair, d] : c.less_rows) {
      program.add_constraint({{{pair.first, 1.0}, {pair.second, 1.0}},
                              lp::oracle::Relation::kLessEqual,
                              d - kEpsilonM,
                              /*soft=*/true,
                              static_cast<double>(kLessPenalty)});
    }
    for (std::size_t k = 0; k < c.co_pairs.size(); ++k) {
      if (active[k] == 0) continue;
      const double d = c.co_dist[k];
      program.add_constraint({{{c.co_pairs[k].first, 1.0}, {c.co_pairs[k].second, 1.0}},
                              lp::oracle::Relation::kGreaterEqual,
                              d,
                              /*soft=*/d > 2.0 * cap,
                              static_cast<double>(kFarPenalty)});
    }
    const lp::oracle::Solution solution = program.solve();
    EXPECT_TRUE(solution.optimal()) << lp::oracle::to_string(solution.status);
    if (!solution.optimal()) return std::vector<double>(c.observed.size(), 0.0);
    bool added = false;
    for (std::size_t k = 0; k < c.co_pairs.size(); ++k) {
      const double sum = solution.values[c.co_pairs[k].first] + solution.values[c.co_pairs[k].second];
      if (active[k] == 0 && sum < c.co_dist[k] - 1e-9) {
        active[k] = 1;
        added = true;
      }
    }
    if (!added) return solution.values;
  }
}

/// The LP objective of raw radii `r`, soft-row penalties included.
double objective(const ApRadConstraints& c, double cap, const std::vector<double>& r) {
  double value = 0.0;
  for (const double radius : r) value += radius;
  for (const auto& [pair, d] : c.less_rows) {
    value -= kLessPenalty * std::max(0.0, r[pair.first] + r[pair.second] - (d - kEpsilonM));
  }
  for (std::size_t k = 0; k < c.co_pairs.size(); ++k) {
    const double d = c.co_dist[k];
    if (d > 2.0 * cap) {
      value -= kFarPenalty * std::max(0.0, d - r[c.co_pairs[k].first] - r[c.co_pairs[k].second]);
    }
  }
  return value;
}

/// The largest breach of a bound or of a hard co-observation row, in metres.
double hard_violation(const ApRadConstraints& c, double cap, const std::vector<double>& r) {
  double worst = 0.0;
  for (const double radius : r) worst = std::max({worst, -radius, radius - cap});
  for (std::size_t k = 0; k < c.co_pairs.size(); ++k) {
    const double d = c.co_dist[k];
    if (d <= 2.0 * cap) {
      worst = std::max(worst, d - r[c.co_pairs[k].first] - r[c.co_pairs[k].second]);
    }
  }
  return worst;
}

/// The flow reaches the oracle's objective and keeps every hard row, and
/// aprad_estimate_radii returns its radii plus the bias, clamped, the same
/// bits on every call.
void expect_matches_oracle(const ApDatabase& db,
                           const std::vector<std::set<net80211::MacAddress>>& gammas,
                           const ApRadOptions& options) {
  const ApRadConstraints c = aprad_prepare_constraints(db, gammas, options);
  ASSERT_FALSE(c.observed.empty());
  const double cap = options.max_radius_m;
  const std::vector<double> flow = lp::solve(flow_program(c, cap));
  const std::vector<double> simplex = oracle_radii(c, cap);
  ASSERT_EQ(flow.size(), c.observed.size());
  ASSERT_EQ(simplex.size(), c.observed.size());
  const double want = objective(c, cap, simplex);
  EXPECT_NEAR(objective(c, cap, flow), want, 1e-9 * std::max(1.0, std::abs(want)));
  EXPECT_LE(hard_violation(c, cap, flow), 1e-9);

  const auto radii = aprad_estimate_radii(db, gammas, options);
  const auto again = aprad_estimate_radii(db, gammas, options);
  ASSERT_EQ(radii.size(), c.observed.size());
  for (std::size_t i = 0; i < c.observed.size(); ++i) {
    const double got = radii.at(c.observed[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(std::min(flow[i] + kBiasM, cap)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.at(c.observed[i])),
              std::bit_cast<std::uint64_t>(got));
  }
}

/// APs scattered over a square, each with its own range; scans at random
/// spots hear the APs whose range covers them. A scan misses a covering AP
/// now and then, which puts "<" rows against co-observation rows, and now
/// and then hears a far AP (a device that moved mid-scan), which makes co
/// rows the cap cannot meet.
struct Instance {
  ApDatabase db;
  std::vector<std::set<net80211::MacAddress>> gammas;
  ApRadOptions options;
};

Instance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  Instance out;
  const auto n = static_cast<int>(rng.uniform_int(20, 120));
  const double side = 60.0 * std::sqrt(static_cast<double>(n));
  std::vector<geo::Vec2> position;
  std::vector<double> range;
  for (int i = 0; i < n; ++i) {
    position.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    range.push_back(rng.uniform(30.0, 100.0));
    out.db.add({mac(i), "ap", position.back(), std::nullopt});
  }
  for (int scan = 0; scan < n; ++scan) {
    const geo::Vec2 spot{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    std::set<net80211::MacAddress> gamma;
    for (int i = 0; i < n; ++i) {
      if (spot.distance_to(position[i]) <= range[i] && !rng.bernoulli(0.1)) gamma.insert(mac(i));
    }
    if (rng.bernoulli(0.03)) gamma.insert(mac(static_cast<int>(rng.uniform_int(0, n - 1))));
    if (!gamma.empty()) out.gammas.push_back(std::move(gamma));
  }
  out.options.max_radius_m = rng.uniform(80.0, 200.0);
  out.options.max_less_neighbors = static_cast<std::size_t>(rng.uniform_int(4, 8));
  return out;
}

class ApRadDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApRadDifferential, FlowReachesSimplexOptimum) {
  const Instance instance = random_instance(GetParam());
  expect_matches_oracle(instance.db, instance.gammas, instance.options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApRadDifferential, ::testing::Range<std::uint64_t>(1, 41));

// The instances above must reach what makes the LP hard: violated "<" rows
// at the optimum and co rows the cap cannot meet.
TEST(ApRadDifferentialCoverage, RandomInstancesBindSoftRows) {
  int with_violated_less = 0;
  int with_far_co = 0;
  for (std::uint64_t seed = 1; seed < 41; ++seed) {
    const Instance instance = random_instance(seed);
    const ApRadConstraints c =
        aprad_prepare_constraints(instance.db, instance.gammas, instance.options);
    const double cap = instance.options.max_radius_m;
    const std::vector<double> r = lp::solve(flow_program(c, cap));
    bool violated = false;
    for (const auto& [pair, d] : c.less_rows) {
      violated = violated || r[pair.first] + r[pair.second] > d - kEpsilonM + 1e-6;
    }
    with_violated_less += violated ? 1 : 0;
    with_far_co += std::any_of(c.co_dist.begin(), c.co_dist.end(),
                               [cap](double d) { return d > 2.0 * cap; })
                       ? 1
                       : 0;
  }
  EXPECT_GE(with_violated_less, 10);
  EXPECT_GE(with_far_co, 10);
}

// A hub h whose hard row with z (r_h + r_z >= 200) meets z's "<" row with w
// (r_z + r_w <= 59), while 35 APs clustered 200 m away each hold
// r_h + r_k <= 199. Lowering r_h by a metre frees 35 metres of radius and
// costs a metre of z-w violation: at 50 per metre the LP keeps r_h at 141,
// and at any penalty under 35 it would drop r_h to 0. So this instance
// pins the penalty's size, which the random ones rarely reach.
TEST(ApRadDifferentialStar, PenaltyOutweighsThirtyFiveRadii) {
  ApDatabase db;
  const net80211::MacAddress h = mac(0);
  const net80211::MacAddress z = mac(1);
  const net80211::MacAddress w = mac(2);
  db.add({h, "ap", {0.0, 0.0}, std::nullopt});
  db.add({z, "ap", {-200.0, 0.0}, std::nullopt});
  db.add({w, "ap", {-260.0, 0.0}, std::nullopt});
  std::set<net80211::MacAddress> cluster;
  for (int k = 0; k < 35; ++k) {
    db.add({mac(3 + k), "ap", {200.0 + 0.05 * k, 0.0}, std::nullopt});
    cluster.insert(mac(3 + k));
  }
  const std::vector<std::set<net80211::MacAddress>> gammas{{h, z}, {w}, cluster};
  expect_matches_oracle(db, gammas, {});
  EXPECT_NEAR(aprad_estimate_radii(db, gammas).at(h), 141.0 + kBiasM, 1e-9);
}

TEST(ApRadDifferentialCampus, FortyApCampusReachesSimplexOptimum) {
  bench::CampusRunConfig cfg;
  cfg.num_aps = 40;
  const bench::CampusRun run = bench::run_campus(cfg);
  expect_matches_oracle(ApDatabase::from_truth(run.truth, false),
                        run.store.session_gammas(TrackerOptions{}.session_gap_s), {});
}

}  // namespace
}  // namespace mm::marauder
