#include "marauder/aploc.h"

#include <gtest/gtest.h>

#include <numbers>

#include "marauder/tracker.h"
#include "util/rng.h"

namespace mm::marauder {
namespace {

net80211::MacAddress mac(int i) {
  std::array<std::uint8_t, 6> bytes{0x00, 0x1a, 0x2b, 0x00, 0x01,
                                    static_cast<std::uint8_t>(i)};
  return net80211::MacAddress(bytes);
}

TEST(ApLoc, NoTuplesNoPositions) {
  EXPECT_TRUE(aploc_estimate_positions({}, {}).empty());
  EXPECT_TRUE(aploc_build_database({}, {}).empty());
}

TEST(ApLoc, SingleTupleCentersOnTrainingLocation) {
  std::vector<capture::TrainingTuple> tuples{{{50.0, 50.0}, {mac(0)}}};
  const auto positions = aploc_estimate_positions(tuples, {});
  ASSERT_EQ(positions.size(), 1u);
  // With one training disc the centroid is the training location itself.
  EXPECT_NEAR(positions.at(mac(0)).x, 50.0, 1e-6);
  EXPECT_NEAR(positions.at(mac(0)).y, 50.0, 1e-6);
}

TEST(ApLoc, ManyTuplesTriangulateAp) {
  // True AP at (0, 0), heard radius 100. Training locations on a circle of
  // radius 80 around it; upper-bound disc radius 150.
  util::Rng rng(3);
  std::vector<capture::TrainingTuple> tuples;
  for (int i = 0; i < 12; ++i) {
    const double theta = 2.0 * std::numbers::pi * i / 12.0;
    tuples.push_back({geo::Vec2::from_polar(80.0, theta), {mac(0)}});
  }
  ApLocOptions options;
  options.training_disc_radius_m = 150.0;
  const auto positions = aploc_estimate_positions(tuples, options);
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_LT(positions.at(mac(0)).norm(), 10.0);
}

TEST(ApLoc, AccuracyImprovesWithMoreTuples) {
  util::Rng rng(11);
  const geo::Vec2 true_ap{20.0, -30.0};
  const double hear_radius = 100.0;
  auto estimate_with = [&](int n_tuples, std::uint64_t seed) {
    util::Rng local(seed);
    std::vector<capture::TrainingTuple> tuples;
    for (int i = 0; i < n_tuples; ++i) {
      const geo::Vec2 at =
          true_ap +
          geo::Vec2::from_polar(hear_radius * std::sqrt(local.uniform()), local.angle());
      tuples.push_back({at, {mac(0)}});
    }
    ApLocOptions options;
    options.training_disc_radius_m = 150.0;
    return aploc_estimate_positions(tuples, options).at(mac(0)).distance_to(true_ap);
  };
  double err3 = 0.0;
  double err25 = 0.0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    err3 += estimate_with(3, 1000 + s);
    err25 += estimate_with(25, 2000 + s);
  }
  EXPECT_LT(err25 / 20.0, err3 / 20.0);
}

TEST(ApLoc, EndToEndLocatesMobile) {
  util::Rng rng(7);
  // Ground truth: 6 APs around the origin, radius 100.
  std::vector<geo::Vec2> ap_positions;
  for (int i = 0; i < 6; ++i) {
    ap_positions.push_back(geo::Vec2::from_polar(70.0, 2.0 * std::numbers::pi * i / 6.0));
  }
  const double true_radius = 100.0;

  // Wardriving tuples: 40 random locations; each hears APs within radius.
  std::vector<capture::TrainingTuple> tuples;
  for (int t = 0; t < 40; ++t) {
    const geo::Vec2 at{rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0)};
    capture::TrainingTuple tuple{at, {}};
    for (int i = 0; i < 6; ++i) {
      if (at.distance_to(ap_positions[static_cast<std::size_t>(i)]) <= true_radius) {
        tuple.heard_aps.insert(mac(i));
      }
    }
    tuples.push_back(std::move(tuple));
  }

  // Victim at origin sees all six APs in one scan, which is also AP-Rad's
  // co-observation evidence beside the training tuples.
  const net80211::MacAddress victim = *net80211::MacAddress::parse("00:16:6f:00:00:02");
  capture::ObservationStore store;
  for (int i = 0; i < 6; ++i) store.record_contact(mac(i), victim, 1.0, -60.0);

  TrackerOptions options;
  options.algorithm = Algorithm::kApLoc;
  options.aploc.training_disc_radius_m = 150.0;
  options.aprad.max_radius_m = 200.0;
  Tracker tracker = Tracker::from_training(tuples, options);
  tracker.prepare(store);
  const LocalizationResult r = tracker.locate(store, victim);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.method, "AP-Loc");
  EXPECT_LT(r.estimate.norm(), 50.0);
}

TEST(ApLoc, SmallestEnclosingCirclePlacement) {
  // Hearing locations on a circle around the AP: SEC center is the AP.
  std::vector<capture::TrainingTuple> tuples;
  for (int i = 0; i < 8; ++i) {
    const double theta = 2.0 * std::numbers::pi * i / 8.0;
    tuples.push_back({geo::Vec2{25.0, -40.0} + geo::Vec2::from_polar(60.0, theta),
                      {mac(0)}});
  }
  ApLocOptions options;
  options.placement = ApPlacement::kSmallestEnclosingCircle;
  const auto positions = aploc_estimate_positions(tuples, options);
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_LT(positions.at(mac(0)).distance_to({25.0, -40.0}), 1.0);
}

TEST(ApLoc, PlacementMethodsBothReasonable) {
  util::Rng rng(21);
  const geo::Vec2 true_ap{10.0, 20.0};
  std::vector<capture::TrainingTuple> tuples;
  for (int i = 0; i < 20; ++i) {
    tuples.push_back({true_ap + geo::Vec2::from_polar(100.0 * std::sqrt(rng.uniform()),
                                                      rng.angle()),
                      {mac(0)}});
  }
  for (const ApPlacement placement :
       {ApPlacement::kBoundedIntersection, ApPlacement::kSmallestEnclosingCircle}) {
    ApLocOptions options;
    options.placement = placement;
    options.training_disc_radius_m = 150.0;
    const auto positions = aploc_estimate_positions(tuples, options);
    EXPECT_LT(positions.at(mac(0)).distance_to(true_ap), 25.0)
        << "placement " << static_cast<int>(placement);
  }
}

TEST(ApLoc, DatabaseContainsOnlyHeardAps) {
  std::vector<capture::TrainingTuple> tuples{
      {{0.0, 0.0}, {mac(0), mac(1)}},
      {{10.0, 0.0}, {mac(1)}},
  };
  const ApDatabase db = aploc_build_database(tuples, {});
  EXPECT_EQ(db.size(), 2u);
  EXPECT_NE(db.find(mac(0)), nullptr);
  EXPECT_NE(db.find(mac(1)), nullptr);
  EXPECT_EQ(db.find(mac(5)), nullptr);
}

}  // namespace
}  // namespace mm::marauder
